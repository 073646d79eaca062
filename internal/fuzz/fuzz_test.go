package fuzz

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the testdata seed corpus")

// TestGeneratedSamplesSmoke runs a deterministic batch of generated cases
// through the full differential battery. Any violation here is a real bug
// (in the pipeline or in the generator's discipline).
func TestGeneratedSamplesSmoke(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		s := NewShape(seed, false)
		if v := RunCase(Render(s)); v != nil {
			t.Fatalf("seed %d: %v", seed, v)
		}
	}
}

// TestStormSamplesSmoke is the same under storm shapes (tiny ROB/FRQ/
// Reserve, slice/fence-heavy programs).
func TestStormSamplesSmoke(t *testing.T) {
	n := 15
	if testing.Short() {
		n = 4
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		s := NewShape(seed, true)
		if v := RunCase(Render(s)); v != nil {
			t.Fatalf("storm seed %d: %v", seed, v)
		}
	}
}

// TestScenarios replays the hand-built adversarial cases.
func TestScenarios(t *testing.T) {
	for _, c := range Scenarios() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if v := RunCase(c); v != nil {
				t.Fatalf("%s: %v", c.Name, v)
			}
		})
	}
}

// TestReplayRepros replays every committed repro file. These are
// regression cases: once their bug is fixed, they must stay clean forever.
func TestReplayRepros(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no repro files under testdata/ (the seed corpus should be committed)")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			c, err := ReadCaseFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if v := RunCase(c); v != nil {
				t.Fatalf("%s: %v", c.Name, v)
			}
		})
	}
}

// TestCaseRoundTrip: serialization is lossless — a decoded case must be
// instruction-identical and byte-identical to the original.
func TestCaseRoundTrip(t *testing.T) {
	orig := Render(NewShape(7, false))
	data, err := orig.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCase(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || !bytes.Equal(back.Mem, orig.Mem) {
		t.Fatalf("name/mem mismatch after round trip")
	}
	if len(back.Progs) != len(orig.Progs) {
		t.Fatalf("program count: got %d want %d", len(back.Progs), len(orig.Progs))
	}
	for i := range orig.Progs {
		a, b := orig.Progs[i], back.Progs[i]
		if len(a.Code) != len(b.Code) {
			t.Fatalf("prog %d: length %d vs %d", i, len(a.Code), len(b.Code))
		}
		for pc := range a.Code {
			ai, bi := a.Code[pc], b.Code[pc]
			// Labels are not serialized; compare the executable fields.
			if ai.Op != bi.Op || ai.Dst != bi.Dst || ai.Src1 != bi.Src1 ||
				ai.Src2 != bi.Src2 || ai.Val != bi.Val || ai.Imm != bi.Imm ||
				ai.Reduce() != bi.Reduce() {
				t.Fatalf("prog %d pc %d: %v vs %v", i, pc, ai, bi)
			}
		}
	}
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("encode(decode(x)) != x")
	}
}

// TestDecodeCaseRejectsStrayOperand: a repro file naming a register an
// instruction does not read fails to load, rather than running a program
// whose emulator, rename stage and slice checker read that instruction
// three different ways.
func TestDecodeCaseRejectsStrayOperand(t *testing.T) {
	repro := func(addi string) []byte {
		return []byte(`{"name":"stray","cfg":{"cores":1,"smt":1},"progs":[{"name":"p","code":[` +
			addi + `,{"op":"halt"}]}],"mem":""}`)
	}
	if _, err := DecodeCase(repro(`{"op":"addi","dst":1,"src1":2,"imm":4}`)); err != nil {
		t.Fatalf("valid repro rejected: %v", err)
	}
	_, err := DecodeCase(repro(`{"op":"addi","dst":1,"src1":2,"src2":3}`))
	if err == nil || !strings.Contains(err.Error(), "pc 0") {
		t.Fatalf("addi with a stray src2: got %v, want an error naming pc 0", err)
	}
}

// TestFaultInjectionCaught proves the oracle battery has teeth: with a
// deliberately broken recovery path armed, a modest batch of storm samples
// must produce at least one violation (the ISSUE's acceptance bar is 500
// samples; these faults fall within a handful).
func TestFaultInjectionCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection sweep is slow")
	}
	modes := []struct {
		name string
		mode core.FaultMode
	}{
		{"skip-unlink", core.FaultSkipUnlink},
		{"leak-pending", core.FaultLeakPending},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			core.SetFaultInjection(m.mode)
			defer core.SetFaultInjection(core.FaultNone)
			const maxSamples = 200
			for seed := uint64(1); seed <= maxSamples; seed++ {
				s := NewShape(seed, true)
				if v := RunCase(Render(s)); v != nil {
					t.Logf("%s caught at seed %d after %d samples: %s",
						m.name, seed, seed, v.Kind)
					return
				}
			}
			t.Fatalf("%s: no violation within %d samples — the oracles are blind to this bug",
				m.name, maxSamples)
		})
	}
}

// TestMinimizePreservesKind: under an injected fault, the minimizer must
// hand back a still-failing shape with the same violation kind, no larger
// than the original.
func TestMinimizePreservesKind(t *testing.T) {
	if testing.Short() {
		t.Skip("minimization is slow")
	}
	core.SetFaultInjection(core.FaultSkipUnlink)
	defer core.SetFaultInjection(core.FaultNone)

	var s *Shape
	var v *Violation
	for seed := uint64(1); seed <= 100; seed++ {
		cand := NewShape(seed, true)
		if cv := RunCase(Render(cand)); cv != nil {
			s, v = cand, cv
			break
		}
	}
	if s == nil {
		t.Fatal("no failing sample to minimize")
	}
	ms, mv := Minimize(s, v, 120)
	if mv == nil || mv.Kind != v.Kind {
		t.Fatalf("minimizer lost the violation: had %v, got %v", v, mv)
	}
	if len(renderedCode(ms)) > len(renderedCode(s)) {
		t.Fatalf("minimized case grew: %d > %d instructions",
			len(renderedCode(ms)), len(renderedCode(s)))
	}
	if rv := RunCase(Render(ms)); rv == nil || rv.Kind != v.Kind {
		t.Fatalf("minimized shape does not reproduce: %v", rv)
	}
}

func renderedCode(s *Shape) []struct{} {
	n := 0
	for _, p := range Render(s).Progs {
		n += len(p.Code)
	}
	return make([]struct{}, n)
}

// TestExportCorpus regenerates the committed seed corpus when -update is
// set (mirrors the golden-file idiom) and otherwise verifies the files on
// disk match the in-tree scenario builders.
func TestExportCorpus(t *testing.T) {
	for _, c := range Scenarios() {
		c := c
		path := filepath.Join("testdata", c.Name+".json")
		data, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/fuzz -run TestExportCorpus -update`)", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s is stale; regenerate with -update", path)
		}
	}
}

// FuzzSelectiveFlushEquivalence is the native fuzz entry: each input seed
// becomes a full generated case run through the differential battery.
func FuzzSelectiveFlushEquivalence(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := NewShape(seed, false)
		if v := RunCase(Render(s)); v != nil {
			t.Fatalf("seed %#x: %v", seed, v)
		}
	})
}

// FuzzRecoveryStorm fuzzes the storm regime: tiny windows, FRQ/Reserve of
// 1-2, slice- and fence-dense programs.
func FuzzRecoveryStorm(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := NewShape(seed, true)
		if v := RunCase(Render(s)); v != nil {
			t.Fatalf("storm seed %#x: %v", seed, v)
		}
	})
}
