package vet

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtures drives every pass over its testdata fixtures. Fixtures
// with no want comments are negative: they assert the pass (or the
// allow directive, or class scoping) keeps the file silent.
func TestFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
	}{
		{DeterminismAnalyzer, "determinism.go"},
		{DeterminismAnalyzer, "determinism_allow.go"},
		{DeterminismAnalyzer, "determinism_support.go"},
		{MapOrderAnalyzer, "maporder.go"},
		{RNGSourceAnalyzer, "rngsource.go"},
		{ObsCostAnalyzer, "obscost.go"},
		{ErrDisciplineAnalyzer, "errdiscipline.go"},
		{ErrDisciplineAnalyzer, "errdiscipline_cmd.go"},
	}
	for _, c := range cases {
		t.Run(c.analyzer.Name+"/"+c.fixture, func(t *testing.T) {
			runFixture(t, c.analyzer, c.fixture)
		})
	}
}

// TestMalformedDirectives loads the directive fixture directly (want
// comments cannot trail a line-comment directive) and checks that bad
// directives surface as diagnostics and suppress nothing.
func TestMalformedDirectives(t *testing.T) {
	l := loader(t)
	pkg, err := l.LoadFiles(defaultFixturePath, filepath.Join("testdata", "directive_bad.go"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{DeterminismAnalyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wants := []string{
		"needs a reason",
		`unknown pass "clocks"`,
		"calls time.Now",   // not suppressed by the reasonless directive
		"calls time.Since", // not suppressed by the unknown-pass directive
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic contains %q; got %d diagnostics:", w, len(diags))
			for _, d := range diags {
				t.Logf("  %s", d)
			}
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics, want %d", len(diags), len(wants))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		path string
		want Class
	}{
		{"marvel/internal/core", ClassEngine},
		{"marvel/internal/campaign", ClassEngine},
		{"marvel/internal/dispatch", ClassEngine},
		{"marvel/internal/program/ir", ClassEngine}, // nested engine packages inherit
		{"marvel/internal/obs", ClassSupport},
		{"marvel/internal/figures", ClassSupport},
		{"marvel/internal/server", ClassSupport},
		{"marvel", ClassSupport},
		{"marvel/cmd/marvel", ClassCmd},
		{"marvel/cmd/marvel-vet", ClassCmd},
		{"marvel/examples/demo", ClassCmd},
		{"marvel/internal/corex", ClassSupport}, // prefix match must be path-segment exact
	}
	for _, c := range cases {
		if got := Classify(c.path); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want the full suite", len(all), err)
	}
	two, err := ByName("determinism, maporder")
	if err != nil || len(two) != 2 || two[0].Name != "determinism" || two[1].Name != "maporder" {
		t.Fatalf("ByName(determinism, maporder) = %v, err %v", two, err)
	}
	if _, err := ByName("nosuchpass"); err == nil {
		t.Fatal("ByName(nosuchpass) did not error")
	}
}
