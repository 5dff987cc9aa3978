package runcfg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// notCarried is the one list of Config fields a surface does not carry,
// keyed "argv Field" (Args and Flags) or "json Field" (a job spec), each
// with the reason. Every other field must round-trip on that surface.
var notCarried = map[string]string{
	"argv Ranks":               "pa-tcp takes it from the length of -addrs, pagen from its own -ranks",
	"argv Transport":           "in-process only: pagen's own -transport; pa-tcp ranks always talk TCP",
	"argv RecordTrace":         "derived: a library caller's choice, no CLI records a trace",
	"argv CollectNodeLoad":     "derived from -metrics and checkpointing",
	"argv CheckpointFullEvery": "a no-op kept for callers that still set it",
	"json Transport":           "in-process only; a job's ranks are pa-tcp processes or the default shm group",
	"json RecordTrace":         "derived: the queue never records a trace",
	"json CollectNodeLoad":     "derived: jobs checkpoint, and node loads are not captured by a snapshot",
	"json CheckpointFullEvery": "a no-op kept for callers that still set it",
	"json CheckpointDir":       "the queue owns a job's directories, so the spec refuses them",
	"json StreamDir":           "the queue owns a job's directories, so the spec refuses them",
	"json Resume":              "the queue decides when an attempt resumes, so the spec refuses it",
	"json CheckpointKeep":      "jobs keep the default retention; the spec never carried it",
}

// fill sets every field of a Config from data by reflection, so a field
// added to Config is fuzzed without touching this test. Exhausted data
// reads as zeros. JSON has no NaN or ±Inf, so a non-finite float reads
// as 0, and a string is made valid UTF-8, which JSON would otherwise
// rewrite.
func fill(t *testing.T, data []byte) Config {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	var c Config
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(take(1)[0]&1 == 1)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(int(binary.LittleEndian.Uint64(take(8)))))
		case reflect.Uint64:
			f.SetUint(binary.LittleEndian.Uint64(take(8)))
		case reflect.Float64:
			x := math.Float64frombits(binary.LittleEndian.Uint64(take(8)))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			f.SetFloat(x)
		case reflect.String:
			f.SetString(strings.ToValidUTF8(string(take(int(take(1)[0]%24))), "?"))
		default:
			t.Fatalf("Config.%s is a %s: teach fill, Flags and the JSON tags about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return c
}

// FuzzConfigRoundTrip checks that Config → Args → Flags → Config and
// Config → JSON → Config are identities on every field each surface
// carries, that a field notCarried lists is really dropped (and its
// JSON key refused as unknown), and that the list names only Config
// fields. A field deleted from Config therefore fails to compile (Flags,
// Options or a caller names it) or fails here; a field added to Config
// fails here until a surface carries it or the list says why not.
func FuzzConfigRoundTrip(f *testing.F) {
	for _, b := range []byte{0x00, 0x01, 0x5a, 0xa5, 0xff} {
		f.Add(bytes.Repeat([]byte{b}, 256))
	}
	f.Add([]byte("\x10\x27\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00"))
	typ := reflect.TypeOf(Config{})
	for key := range notCarried {
		surface, name, _ := strings.Cut(key, " ")
		if _, ok := typ.FieldByName(name); !ok || (surface != "argv" && surface != "json") {
			f.Fatalf("notCarried lists %q: no such surface or Config field", key)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := fill(t, data)

		var viaArgv Config
		fs := flag.NewFlagSet("runcfg", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		viaArgv.Flags(fs)
		args := c.Args()
		if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
			t.Fatalf("Args() = %q does not parse: %v (%d left over)", args, err, fs.NArg())
		}

		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %+v: %v", c, err)
		}
		var viaJSON Config
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&viaJSON); err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}

		want, argv, js := reflect.ValueOf(c), reflect.ValueOf(viaArgv), reflect.ValueOf(viaJSON)
		for i := 0; i < typ.NumField(); i++ {
			name, v := typ.Field(i).Name, want.Field(i)
			for _, s := range []struct {
				surface string
				got     reflect.Value
			}{{"argv", argv.Field(i)}, {"json", js.Field(i)}} {
				same := reflect.DeepEqual(s.got.Interface(), v.Interface())
				why, dropped := notCarried[s.surface+" "+name]
				switch {
				case !dropped && !same:
					t.Errorf("%s: %s = %#v came back as %#v (args %q, json %s)",
						s.surface, name, v.Interface(), s.got.Interface(), args, b)
				case dropped && same && !v.IsZero():
					t.Errorf("%s carries %s, but notCarried says %q", s.surface, name, why)
				}
			}
			if _, dropped := notCarried["json "+name]; dropped && !v.IsZero() {
				key, _ := json.Marshal(map[string]any{name: v.Interface()})
				dec := json.NewDecoder(bytes.NewReader(key))
				dec.DisallowUnknownFields()
				if err := dec.Decode(new(Config)); err == nil {
					t.Errorf("a spec accepts %s, which notCarried says it refuses", key)
				}
			}
		}
	})
}

// An explicit -p 0 is refused by name on every CLI that registers the
// shared flags: a Config cannot say p = 0 (its zero P selects the
// default), so accepting it would silently run p = 0.5.
func TestFlagsRefuseExplicitP0(t *testing.T) {
	for _, arg := range []string{"-p=0", "-p=0.0", "-p=-0"} {
		var c Config
		fs := flag.NewFlagSet("runcfg", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.Flags(fs)
		err := fs.Parse([]string{arg})
		if err == nil || !strings.Contains(err.Error(), "-p") {
			t.Errorf("%s: err = %v, want a refusal naming -p", arg, err)
		}
	}
}

// Validate fills the defaults a metrics header and a stored job spec
// show, and validating its result again changes nothing.
func TestValidateDefaults(t *testing.T) {
	got, err := Config{N: 100, X: 2}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	want := Config{N: 100, X: 2, P: 0.5, Scheme: "RRP", Ranks: 1, Resolve: "wire"}
	if got != want {
		t.Errorf("Validate = %+v, want %+v", got, want)
	}
	if again, err := got.Validate(); err != nil || again != got {
		t.Errorf("Validate again = %+v, %v", again, err)
	}
	for _, bad := range []Config{
		{N: 100, X: 2, Ranks: -1},
		{N: 100, X: 2, Transport: "tcp"},
		{N: 100, X: 2, Scheme: "bogus"},
		{N: 100, X: 2, Resolve: "bogus"},
		{N: 100, X: 2, CheckpointEvery: -1},
		{N: 100, X: 2, StreamBlockEdges: -1},
		{N: 100, X: 2, P: math.NaN()},
		{N: 1 << 57, X: 2}, // core.MaxN + 1
	} {
		if _, err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
}
