package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseShape checks that -shape goes through nd.ParseShape: every
// malformed shape is refused, naming the flag's value, before any output.
func TestParseShape(t *testing.T) {
	for _, bad := range []string{"", "x", "4xx2", "4x-1", "0"} {
		err := run(bad, 10, 1, "uniform", "csv")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Fatalf("-shape %q: err = %v", bad, err)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run("4x4", 10, 1, "nonsense", "csv"); err == nil {
		t.Fatal("bad distribution accepted")
	}
	if err := run("bogus", 10, 1, "uniform", "csv"); err == nil {
		t.Fatal("bad shape accepted")
	}
	if err := run("4x4", 0, 1, "uniform", "csv"); err == nil {
		t.Fatal("bad sparsity accepted")
	}
	if err := run("4x4", 10, 1, "uniform", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}
