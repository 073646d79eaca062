package core

import (
	"strings"
	"testing"

	"repro/internal/emu"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want PolicySpec
	}{
		{"selective", PolicySpec{Kind: PolicySelective}},
		{"conventional", PolicySpec{Kind: PolicyConventional}},
		{"partial", PolicySpec{Kind: PolicyPartial}},
		{"partial:inf", PolicySpec{Kind: PolicyPartial}},
		{"partial:1", PolicySpec{Kind: PolicyPartial, Depth: 1}},
		{"partial:224", PolicySpec{Kind: PolicyPartial, Depth: 224}},
		{"throttle", PolicySpec{Kind: PolicyThrottle, Conf: 2}},
		{"throttle:0", PolicySpec{Kind: PolicyThrottle, Conf: 0}},
		{"throttle:4", PolicySpec{Kind: PolicyThrottle, Conf: 4}},
	}
	for _, tc := range cases {
		sp, err := ParsePolicy(tc.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", tc.in, err)
		}
		if sp != tc.want {
			t.Fatalf("ParsePolicy(%q) = %+v, want %+v", tc.in, sp, tc.want)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParsePolicy(%q).Validate: %v", tc.in, err)
		}
		// The canonical spelling re-parses to the same spec.
		back, err := ParsePolicy(sp.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q canonical %q): %v", tc.in, sp.String(), err)
		}
		// "throttle" canonicalizes to "throttle:2".
		if back != sp {
			t.Fatalf("canonical %q re-parses to %+v, want %+v", sp.String(), back, sp)
		}
	}
}

func TestParsePolicyErrors(t *testing.T) {
	for _, in := range []string{
		"nope", "partial:x", "partial:-1", "throttle:5", "throttle:-1",
		"selective:1", "conventional:0", "partial:", "throttle:x",
		// The mode-following default lives in blp.Options, not here.
		"", "auto",
	} {
		if _, err := ParsePolicy(in); err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", in)
		}
	}
	// Unknown-kind errors list the registry so the spelling is
	// discoverable.
	_, err := ParsePolicy("nope")
	if err == nil || !strings.Contains(err.Error(), "selective") {
		t.Fatalf("unknown-policy error does not name the registry: %v", err)
	}
}

func TestPolicySpecValidate(t *testing.T) {
	bad := []PolicySpec{
		{},
		{Kind: "bogus"},
		{Kind: PolicySelective, Depth: 1},
		{Kind: PolicyConventional, Conf: 1},
		{Kind: PolicyPartial, Depth: -1},
		{Kind: PolicyPartial, Conf: 2},
		{Kind: PolicyThrottle, Conf: 5},
		{Kind: PolicyThrottle, Conf: -1},
		{Kind: PolicyThrottle, Depth: 3},
	}
	for _, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", sp)
		}
	}
}

func TestRegisteredPoliciesAndMatrix(t *testing.T) {
	kinds := RegisteredPolicies()
	want := []string{"conventional", "partial", "selective", "throttle"}
	if len(kinds) != len(want) {
		t.Fatalf("registered %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("registered %v, want %v", kinds, want)
		}
	}
	m := ConformanceMatrix(224)
	if len(m) < len(kinds) {
		t.Fatalf("matrix %v smaller than the registry", m)
	}
	seen := map[string]bool{}
	for _, sp := range m {
		if err := sp.Validate(); err != nil {
			t.Fatalf("matrix row %+v invalid: %v", sp, err)
		}
		seen[sp.Kind] = true
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Fatalf("matrix %v has no row for registered policy %q", m, k)
		}
	}
	// The degenerate rows the conformance suite's identity oracle keys on.
	mustHave := []PolicySpec{
		{Kind: PolicyPartial},             // partial:inf ≡ conventional
		{Kind: PolicyPartial, Depth: 224}, // partial:<ROB> ≡ conventional
		{Kind: PolicyThrottle, Conf: 0},   // throttle:0 ≡ conventional
	}
	for _, w := range mustHave {
		found := false
		for _, sp := range m {
			if sp == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("matrix %v lacks degenerate row %s", m, w)
		}
	}
}

func TestConfigPolicyValidation(t *testing.T) {
	// A selective policy demands a reservation...
	cfg := DefaultConfig()
	cfg.Recovery = PolicySpec{Kind: PolicySelective}
	cfg.Reserve = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("selective policy with Reserve 0 accepted")
	}
	// ...and a non-selective policy lifts that demand.
	cfg = DefaultConfig()
	cfg.Recovery = PolicySpec{Kind: PolicyPartial, Depth: 4}
	cfg.Reserve = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("partial policy with Reserve 0 rejected: %v", err)
	}
	// Invalid specs are rejected at config validation.
	cfg = DefaultConfig()
	cfg.Recovery = PolicySpec{Kind: PolicyThrottle, Conf: 9}
	if err := cfg.Validate(); err == nil {
		t.Fatal("throttle:9 accepted")
	}
	// The default machine recovers conventionally.
	if got := DefaultConfig().Recovery; got != (PolicySpec{Kind: PolicyConventional}) {
		t.Fatalf("default config recovers with %s", got)
	}
	// NewCore reads the policy's three properties once: only
	// selective is eligible for the §4.2 mechanism, only partial stages
	// its squash, and only throttle gates fetch.
	for _, tc := range []struct {
		spec      PolicySpec
		selective bool
		depth     int
		gate      uint8
	}{
		{PolicySpec{Kind: PolicySelective}, true, 0, 0},
		{PolicySpec{Kind: PolicyConventional}, false, 0, 0},
		{PolicySpec{Kind: PolicyPartial, Depth: 4}, false, 4, 0},
		{PolicySpec{Kind: PolicyThrottle, Conf: 2}, false, 0, 2},
	} {
		cfg := DefaultConfig()
		cfg.Recovery = tc.spec
		c, err := NewCore(0, cfg, nil, make([]*emu.Machine, cfg.SMT))
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if c.selEligible != tc.selective || c.squashDepth != tc.depth || c.gateConf != tc.gate {
			t.Fatalf("%s: selective=%v depth=%d gate=%d, want %v %d %d", tc.spec,
				c.selEligible, c.squashDepth, c.gateConf, tc.selective, tc.depth, tc.gate)
		}
	}
}
