package main

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// setAll parses a command line that sets every pa-tcp flag except the
// named ones to a value other than its default.
func setAll(t *testing.T, skip ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("pa-tcp", flag.ContinueOnError)
	defineFlags(fs)
	var args []string
	fs.VisitAll(func(fl *flag.Flag) {
		if slices.Contains(skip, fl.Name) {
			return
		}
		var v string
		switch fl.Value.(flag.Getter).Get().(type) {
		case bool:
			v = "true"
		case time.Duration:
			v = "7s"
		case string:
			v = "v-" + fl.Name
		default:
			v = "7"
		}
		args = append(args, "-"+fl.Name+"="+v)
	})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

// Every flag the operator set reaches every child rank except the
// supervisor's own (-supervise, -max-restarts, -resume, -rank, which the
// supervisor sets per child) and -stats, which only rank 0 gets.
func TestSupervisorForwardsEveryFlag(t *testing.T) {
	fs := setAll(t, "metrics")
	shared, err := childArgs(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		args := rankArgs(shared, i, true, true)
		if !slices.Equal(args[:4], []string{"-rank", strconv.Itoa(i), "-addrs", "v-addrs"}) {
			t.Errorf("rank %d: command line starts %q, want -rank then -addrs", i, args[:4])
		}
		joined := " " + strings.Join(args, " ") + " "
		fs.VisitAll(func(fl *flag.Flag) {
			want := "-" + fl.Name + " " + fl.Value.String()
			if isBool(fl) {
				want = "-" + fl.Name + "=" + fl.Value.String()
			}
			switch fl.Name {
			case "metrics":
				return
			case "supervise", "max-restarts":
				want = ""
			case "rank":
				want = fmt.Sprintf("-rank %d", i)
			case "resume":
				want = "-resume"
			case "stats":
				want = ""
				if i == 0 {
					want = "-stats"
				}
			}
			switch {
			case want != "" && !strings.Contains(joined, " "+want+" "):
				t.Errorf("rank %d: %s missing from %q", i, want, args)
			case want == "" && (strings.Contains(joined, " -"+fl.Name+" ") || strings.Contains(joined, " -"+fl.Name+"=")):
				t.Errorf("rank %d: -%s reached the child: %q", i, fl.Name, args)
			}
		})
	}
}

// One -metrics file for P children would be overwritten P times, so the
// supervisor refuses it by name.
func TestSupervisorRefusesMetrics(t *testing.T) {
	if _, err := childArgs(setAll(t)); err == nil || !strings.Contains(err.Error(), "-metrics") {
		t.Fatalf("childArgs with -metrics = %v, want an error naming -metrics", err)
	}
}
