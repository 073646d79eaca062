package uncore

import "testing"

func TestBuildScalesWithCores(t *testing.T) {
	cfg := Config{
		Cores: 1, LLCPerCore: 64 << 10, LLCWays: 8, LLCLatency: 20,
		MeshHopLatency: 2, MemLatency: 100, MemBytesPerCycle: 8,
	}
	llc1, mem1 := Build(cfg)
	cfg.Cores = 16
	cfg.MemBytesPerCycle = 8 * 16
	llc16, mem16 := Build(cfg)

	if llc1 == nil || mem1 == nil || llc16 == nil || mem16 == nil {
		t.Fatal("nil components")
	}
	if llc16.Config().SizeBytes != 16*llc1.Config().SizeBytes {
		t.Fatalf("LLC did not scale: %d vs %d",
			llc16.Config().SizeBytes, llc1.Config().SizeBytes)
	}
	// A bigger mesh means more hop latency.
	if llc16.Config().ExtraLatency <= llc1.Config().ExtraLatency {
		t.Fatalf("mesh latency did not grow: %d vs %d",
			llc16.Config().ExtraLatency, llc1.Config().ExtraLatency)
	}
	// And more bandwidth means a smaller per-line cost.
	if mem16.CyclesPerLine >= mem1.CyclesPerLine {
		t.Fatal("bandwidth did not scale")
	}
}

func TestBuildDefaults(t *testing.T) {
	llc, mem := Build(Config{LLCPerCore: 32 << 10, LLCWays: 8, MemLatency: 50})
	if llc == nil || mem == nil {
		t.Fatal("zero-core config not clamped")
	}
	if done := mem.Access(0, 0, false, false); done < 50 {
		t.Fatalf("latency %d", done)
	}
}
