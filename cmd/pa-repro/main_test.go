package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// listDir returns the file names in dir, sorted as os.ReadDir returns
// them (nil if dir does not exist).
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestAllSteps(t *testing.T) {
	dir := t.TempDir()
	var log strings.Builder
	if err := run([]string{"-out", dir, "-scale", "0.001"}, &log); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"accuracy.tsv", "chains.txt",
		"fig3.svg", "fig3.tsv", "fig4.svg", "fig4.tsv", "fig5.svg", "fig5.tsv",
		"fig6.svg", "fig6.tsv", "fig7.svg", "fig7.tsv",
		"headline.txt", "xsweep.tsv",
	}
	if got := listDir(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("files = %v, want %v", got, want)
	}
	for _, name := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
		if !strings.HasSuffix(name, ".tsv") {
			continue
		}
		// A header (or, for fig4, its "# gamma=" line) plus at least one
		// tab-separated row.
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		rows := 0
		for _, l := range lines[1:] {
			if !strings.HasPrefix(l, "#") && strings.Contains(l, "\t") {
				rows++
			}
		}
		if rows == 0 {
			t.Errorf("%s has no data rows:\n%s", name, data)
		}
	}
	for _, s := range steps {
		if !strings.Contains(log.String(), s.data) {
			t.Errorf("progress log never mentions %s", s.data)
		}
	}
}

func TestSelectedSteps(t *testing.T) {
	dir := t.TempDir()
	// Given out of order; steps still run in the canonical order.
	if err := run([]string{"-out", dir, "-scale", "0.001", "chains", "fig4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := "chains.txt fig4.svg fig4.tsv"
	if got := strings.Join(listDir(t, dir), " "); got != want {
		t.Fatalf("files = %q, want %q", got, want)
	}
}

func TestUnknownStepWritesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	err := run([]string{"-out", dir, "-scale", "0.001", "fig3", "fig9"}, io.Discard)
	if err == nil {
		t.Fatal("unknown step accepted")
	}
	for _, s := range steps {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("error %q does not list valid step %s", err, s.name)
		}
	}
	if got := listDir(t, dir); got != nil {
		t.Fatalf("unknown step still wrote %v", got)
	}
}

// A step that fails after writing its data must not leave the data file
// behind. A non-empty directory squatting on fig3.svg stands in for a
// mid-step failure: fig3.tsv is complete, the plot cannot be created.
func TestFailedStepRemovesPartialOutput(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "fig3.svg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fig3.svg", "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := runStep(steps[0], env{seed: 1, scale: 0.001}, dir)
	if err == nil {
		t.Fatal("plot into a directory succeeded")
	}
	if _, statErr := os.Stat(filepath.Join(dir, "fig3.tsv")); !os.IsNotExist(statErr) {
		t.Fatalf("fig3.tsv left behind after failed step (stat err %v)", statErr)
	}
}
