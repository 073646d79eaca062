package cache

// Memory is the DRAM backend: fixed access latency plus a bandwidth token
// bucket shared by everything that reaches it. When multiple cores share
// one Memory, bandwidth contention between them is modeled by the bucket.
type Memory struct {
	// Latency is the DRAM access latency in core cycles.
	Latency int
	// CyclesPerLine is the bandwidth cost of transferring one cache
	// line, in cycles (line bytes / bytes-per-cycle).
	CyclesPerLine float64

	nextFree float64
	accesses uint64
}

// NewMemory returns a DRAM model. bytesPerCycle is the sustained
// bandwidth; lineBytes is the transfer granule.
func NewMemory(latency int, bytesPerCycle float64, lineBytes int) *Memory {
	if bytesPerCycle <= 0 {
		bytesPerCycle = 64
	}
	return &Memory{
		Latency:       latency,
		CyclesPerLine: float64(lineBytes) / bytesPerCycle,
	}
}

// Accesses returns the number of line transfers served.
func (m *Memory) Accesses() uint64 { return m.accesses }

// Access implements Level: the request waits for a bandwidth slot, then
// pays the DRAM latency.
func (m *Memory) Access(_ uint64, now int64, _, _ bool) int64 {
	m.accesses++
	start := float64(now)
	if m.nextFree > start {
		start = m.nextFree
	}
	m.nextFree = start + m.CyclesPerLine
	return int64(start) + int64(m.Latency)
}
