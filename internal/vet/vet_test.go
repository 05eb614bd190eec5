package vet_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camouflage/internal/vet"
	"camouflage/internal/vet/vettest"
)

func TestDeterminism(t *testing.T) {
	t.Parallel()
	vettest.Run(t, "determinism", vet.Determinism)
}

func TestHotAlloc(t *testing.T) {
	t.Parallel()
	vettest.Run(t, "hotalloc", vet.HotAlloc)
}

func TestObsCounter(t *testing.T) {
	t.Parallel()
	vettest.Run(t, "obscounter", vet.ObsCounter)
}

func TestFaultPoint(t *testing.T) {
	t.Parallel()
	vettest.Run(t, "faultpoint", vet.FaultPoint)
}

// TestAnnotationErrors exercises the directive hygiene findings, which
// cannot live in want-comment testdata: a malformed directive's line
// cannot also carry a separate want comment.
func TestAnnotationErrors(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module camovettest\n\ngo 1.22\n")
	write("a.go", `package a

func missingReason() int {
	//camo:nondet
	return 1
}

func unknownDirective() int {
	//camo:bogus some reason
	return 2
}

//camo:hotpath misplaced reason text
func strayArgument() {}
`)

	m, err := vet.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := vet.RunAnalyzers(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		if d.Analyzer != "camoannotation" {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
		got = append(got, d.Message)
	}
	wants := []string{
		"//camo:nondet requires a reason string",
		"unknown directive //camo:bogus",
		"//camo:hotpath takes no argument",
	}
	if len(got) != len(wants) {
		t.Fatalf("got %d findings %v, want %d", len(got), got, len(wants))
	}
	for _, w := range wants {
		found := false
		for _, g := range got {
			if strings.Contains(g, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding contains %q (got %v)", w, got)
		}
	}
}
