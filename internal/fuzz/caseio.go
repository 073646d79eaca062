// Package fuzz implements differential fuzzing of the selective-flush
// pipeline: a seeded random generator of slice-annotated programs that
// respect the §4.1 independence contract, a configuration sampler over the
// window/FRQ/reserve/SMT space, an oracle battery that runs every sample
// through the architectural emulator and the timing simulator (selective
// flush, conventional full flush, and forced cycle-accurate stepping) and
// cross-checks the results, and a greedy minimizer that shrinks failing
// samples into replayable repro files under testdata/.
package fuzz

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

// CaseConfig is the sampled hardware configuration of one fuzz case: a
// flat, JSON-stable subset of core.Config plus the system shape. Repro
// files serialize this instead of core.Config so they keep replaying even
// as the config struct grows.
type CaseConfig struct {
	Cores int `json:"cores"`
	SMT   int `json:"smt"`

	ROBSize      int `json:"rob"`
	RS           int `json:"rs"`
	LQ           int `json:"lq"`
	SQ           int `json:"sq"`
	Reserve      int `json:"reserve"`
	ROBBlockSize int `json:"robBlock"`
	FRQSize      int `json:"frq"`

	FetchWidth    int `json:"fetchW"`
	DispatchWidth int `json:"dispatchW"`
	IssueWidth    int `json:"issueW"`
	CommitWidth   int `json:"commitW"`
	FrontendDepth int `json:"feDepth"`
	FrontendQueue int `json:"feQueue"`

	Predictor          string `json:"predictor"`
	WrongPathMemAccess bool   `json:"wpMem"`

	// Policy, when non-empty, arms the policy-equivalence oracle leg:
	// RunCase additionally runs this recovery policy (core.ParsePolicy
	// spelling) through the memory/commit/quiescence oracles, checks its
	// event-driven and cycle-accurate runs agree, and — for the
	// degenerate parameterizations — demands byte-identity with the
	// legacy legs. Empty (the default, and every pre-policy repro file)
	// changes nothing.
	Policy string `json:"policy,omitempty"`
}

// Case is one concrete fuzz sample: the programs (one per hardware
// thread), the initial memory image, and the sampled configuration. A Case
// is self-contained — it replays identically regardless of how the
// generator evolves.
type Case struct {
	Name  string
	Cfg   CaseConfig
	Progs []*isa.Program
	Mem   []byte
}

// simConfig builds the sim configuration for one oracle leg: the sampled
// machine recovering under spec. It deliberately ignores cc.Policy: every
// leg names its own policy, so the sel/ca/conv legs keep running the
// exact machines they always ran and the policy leg passes the parsed
// cc.Policy.
func (cc CaseConfig) simConfig(spec core.PolicySpec, cycleAccurate bool) sim.Config {
	c := core.DefaultConfig()
	c.ROBSize = cc.ROBSize
	c.RS = cc.RS
	c.LQ = cc.LQ
	c.SQ = cc.SQ
	c.Reserve = cc.Reserve
	c.ROBBlockSize = cc.ROBBlockSize
	c.FRQSize = cc.FRQSize
	c.FetchWidth = cc.FetchWidth
	c.DispatchWidth = cc.DispatchWidth
	c.IssueWidth = cc.IssueWidth
	c.CommitWidth = cc.CommitWidth
	c.FrontendDepth = cc.FrontendDepth
	c.FrontendQueue = cc.FrontendQueue
	c.Predictor = cc.Predictor
	c.WrongPathMemAccess = cc.WrongPathMemAccess
	c.SMT = cc.SMT
	c.Recovery = spec
	c.ForceCycleAccurate = cycleAccurate
	return sim.Config{
		Core:  c,
		Mem:   sim.ScaledMemConfig(cc.Cores),
		Cores: cc.Cores,
		// Generated programs run a few thousand dynamic instructions;
		// these bounds catch hangs quickly without false positives.
		MaxCycles:         8_000_000,
		WatchdogCycles:    100_000,
		CheckIndependence: true,
	}
}

// JSON wire format for repro files.

type instJSON struct {
	Op     string `json:"op"`
	Dst    uint8  `json:"dst,omitempty"`
	Src1   uint8  `json:"src1,omitempty"`
	Src2   uint8  `json:"src2,omitempty"`
	Val    uint8  `json:"val,omitempty"`
	Imm    int64  `json:"imm,omitempty"`
	Reduce bool   `json:"reduce,omitempty"`
}

type progJSON struct {
	Name string     `json:"name"`
	Code []instJSON `json:"code"`
}

type caseJSON struct {
	Name  string     `json:"name"`
	Cfg   CaseConfig `json:"cfg"`
	Progs []progJSON `json:"progs"`
	Mem   string     `json:"mem"` // base64 of the initial image
}

// Encode serializes the case as indented JSON.
func (c *Case) Encode() ([]byte, error) {
	cj := caseJSON{
		Name: c.Name,
		Cfg:  c.Cfg,
		Mem:  base64.StdEncoding.EncodeToString(c.Mem),
	}
	for _, p := range c.Progs {
		pj := progJSON{Name: p.Name}
		for _, in := range p.Code {
			pj.Code = append(pj.Code, instJSON{
				Op:     in.Op.String(),
				Dst:    uint8(in.Dst),
				Src1:   uint8(in.Src1),
				Src2:   uint8(in.Src2),
				Val:    uint8(in.Val),
				Imm:    in.Imm,
				Reduce: in.Reduce(),
			})
		}
		cj.Progs = append(cj.Progs, pj)
	}
	return json.MarshalIndent(cj, "", " ")
}

// DecodeCase parses a serialized case and validates its programs.
func DecodeCase(data []byte) (*Case, error) {
	var cj caseJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return nil, fmt.Errorf("fuzz: bad case file: %w", err)
	}
	mem, err := base64.StdEncoding.DecodeString(cj.Mem)
	if err != nil {
		return nil, fmt.Errorf("fuzz: bad case memory: %w", err)
	}
	c := &Case{Name: cj.Name, Cfg: cj.Cfg, Mem: mem}
	for _, pj := range cj.Progs {
		p := &isa.Program{Name: pj.Name}
		for i, ij := range pj.Code {
			op, ok := isa.OpByName(ij.Op)
			if !ok {
				return nil, fmt.Errorf("fuzz: %s: pc %d: unknown op %q", pj.Name, i, ij.Op)
			}
			in := isa.Inst{
				Op:   op,
				Dst:  isa.Reg(ij.Dst),
				Src1: isa.Reg(ij.Src1),
				Src2: isa.Reg(ij.Src2),
				Val:  isa.Reg(ij.Val),
				Imm:  ij.Imm,
			}
			if ij.Reduce {
				in.Flags |= isa.FlagReduce
			}
			p.Code = append(p.Code, in)
		}
		if err := isa.Validate(p); err != nil {
			return nil, fmt.Errorf("fuzz: %w", err)
		}
		c.Progs = append(c.Progs, p)
	}
	if want := c.Cfg.Cores * c.Cfg.SMT; len(c.Progs) != want {
		return nil, fmt.Errorf("fuzz: case %s has %d programs for %d hardware threads",
			c.Name, len(c.Progs), want)
	}
	return c, nil
}

// WriteFile writes the case to path as a repro file.
func (c *Case) WriteFile(path string) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadCaseFile loads a repro file.
func ReadCaseFile(path string) (*Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCase(data)
}
