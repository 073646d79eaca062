// Package uncore models the shared part of the chip: the NUCA last-level
// cache reached over a mesh network-on-chip, and the DRAM controllers with
// their shared bandwidth (paper Table 1: 1.375 MB/core NUCA LLC, mesh NoC,
// 50 ns memory latency, 115.2 GB/s bandwidth, 28 cores).
package uncore

import (
	"math"

	"repro/internal/cache"
)

// Config describes the shared uncore.
type Config struct {
	// Cores sharing the LLC and memory bandwidth.
	Cores int
	// LLCPerCore is the LLC capacity contributed per core, in bytes
	// (the paper scales shared resources with core count, §5.2).
	LLCPerCore int
	LLCWays    int
	// LLCLatency is the LLC bank access latency in cycles.
	LLCLatency int
	// MeshHopLatency is the per-hop NoC latency in cycles; the average
	// hop count grows with the mesh diameter (√cores).
	MeshHopLatency int
	// MemLatency is the DRAM latency in core cycles.
	MemLatency int
	// MemBytesPerCycle is the total DRAM bandwidth shared by all cores,
	// in bytes per core cycle.
	MemBytesPerCycle float64
	// LLCMSHRs bounds outstanding LLC misses (0 = unlimited).
	LLCMSHRs int
}

// Build constructs the shared LLC and memory: LLCPerCore of LLC for each
// core, behind the mesh's average hop latency. Every core's private
// hierarchy should be stacked on the returned LLC.
func Build(cfg Config) (*cache.Cache, *cache.Memory) {
	cores := max(cfg.Cores, 1)
	hops := int(math.Round(math.Sqrt(float64(cores))))
	mem := cache.NewMemory(cfg.MemLatency, cfg.MemBytesPerCycle)
	return cache.New(cache.Config{
		Name:         "llc",
		SizeBytes:    cfg.LLCPerCore * cores,
		Ways:         cfg.LLCWays,
		HitLatency:   cfg.LLCLatency,
		ExtraLatency: cfg.MeshHopLatency * hops,
		MSHRs:        cfg.LLCMSHRs,
	}, mem), mem
}
