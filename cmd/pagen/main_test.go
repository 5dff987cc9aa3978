package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when a test re-executes this
// binary as pagen.
func TestMain(m *testing.M) {
	if os.Getenv("PAGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An explicit -p 0 is refused by name: a Config cannot say p = 0 (its
// zero P selects the default 0.5), so accepting the flag would run a
// different graph from the one asked for.
func TestRefusesExplicitP0(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-n", "2000", "-x", "1", "-p", "0", "-o", os.DevNull)
	cmd.Env = append(os.Environ(), "PAGEN_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("pagen -p 0 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "-p") {
		t.Errorf("pagen -p 0 failed without naming -p:\n%s", out)
	}
}
