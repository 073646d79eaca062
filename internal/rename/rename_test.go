package rename

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestProducerLifecycle(t *testing.T) {
	var tbl Table[int]
	if tbl.Producer(5) != 0 {
		t.Fatal("fresh table has a producer")
	}
	tbl.SetProducer(5, 42)
	if tbl.Producer(5) != 42 {
		t.Fatal("producer not recorded")
	}
	tbl.SetProducer(5, 43)
	if tbl.Producer(5) != 43 {
		t.Fatal("newest producer must win")
	}
}

func TestR0NeverRenamed(t *testing.T) {
	var tbl Table[int]
	tbl.SetProducer(isa.R0, 7)
	if tbl.Producer(isa.R0) != 0 {
		t.Fatal("R0 acquired a producer")
	}
}

func TestCheckpointRestore(t *testing.T) {
	var tbl Table[int]
	tbl.SetProducer(1, 10)
	tbl.SetProducer(2, 20)
	ck := tbl.Checkpoint()
	tbl.SetProducer(1, 11)
	tbl.SetProducer(3, 30)
	tbl.Restore(ck)
	if tbl.Producer(1) != 10 || tbl.Producer(2) != 20 || tbl.Producer(3) != 0 {
		t.Fatal("restore did not reproduce the checkpoint")
	}
}

// TestCheckpointQuick: restore always reproduces the exact mapping at
// checkpoint time regardless of interleaved updates.
func TestCheckpointQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		var tbl Table[int]
		apply := func(o uint16, v int) {
			tbl.SetProducer(isa.Reg(o%isa.NumRegs), v)
		}
		for i, o := range ops {
			apply(o, i+1)
		}
		ck := tbl.Checkpoint()
		var want [isa.NumRegs]int
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			want[r] = tbl.Producer(r)
		}
		for i, o := range ops {
			apply(o, 1000+i)
		}
		tbl.Restore(ck)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if tbl.Producer(r) != want[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
