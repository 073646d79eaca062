package core

import (
	"strings"
	"testing"
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
		{Kind: PolicyPartial},           // partial:inf ≡ conventional
		{Kind: PolicyThrottle, Conf: 0}, // throttle:0 ≡ conventional
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
	// The default machine recovers conventionally; only the selective
	// policy is eligible for the §4.2 mechanism.
	cfg = DefaultConfig()
	pol, err := newPolicy(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != PolicyConventional || pol.SelectiveEligible() {
		t.Fatalf("default config built %s", pol.Name())
	}
	cfg.Recovery = PolicySpec{Kind: PolicySelective}
	pol, err = newPolicy(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != PolicySelective || !pol.SelectiveEligible() {
		t.Fatalf("selective config built %s", pol.Name())
	}
	// Only the throttle policy carries fetch hooks.
	for _, tc := range []struct {
		spec  PolicySpec
		hooks bool
	}{
		{PolicySpec{Kind: PolicySelective}, false},
		{PolicySpec{Kind: PolicyConventional}, false},
		{PolicySpec{Kind: PolicyPartial, Depth: 4}, false},
		{PolicySpec{Kind: PolicyThrottle, Conf: 2}, true},
	} {
		cfg := DefaultConfig()
		cfg.Recovery = tc.spec
		pol, err := newPolicy(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if _, ok := pol.(fetchHooks); ok != tc.hooks {
			t.Fatalf("%s: fetchHooks = %v, want %v", tc.spec, ok, tc.hooks)
		}
	}
}
