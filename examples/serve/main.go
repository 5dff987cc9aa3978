// Generation-as-a-service demo and script-friendly client for the
// pa-serve control plane (docs/API.md): submit jobs, wait on them,
// inspect state and metrics, and download finished graphs — all as
// plain-text output that shell scripts can consume without a JSON
// parser (scripts/loadtest_pa_serve.sh is built on it).
//
//	go run ./examples/serve [-addr http://127.0.0.1:8080] COMMAND [args]
//
// Commands:
//
//	submit   -n N -x X [-p P -seed S -scheme K -job-ranks R -job-workers W
//	         -job-resolve M -job-hub-prefix H -ckpt-every C]   → prints job id
//	wait     ID [-wait-timeout D]   poll until terminal; fails unless done
//	show     ID [-field F]          print the job JSON, or one field
//	list                            one "id state" line per job
//	cancel   ID                     cancel a job
//	preempt  ID                     checkpoint a running job off the pool
//	download ID -o FILE             fetch the merged binary graph
//	metrics                         flattened "key value" lines
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

var addr = flag.String("addr", "http://127.0.0.1:8080", "pa-serve base URL")

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("usage: serve [-addr URL] submit|wait|show|list|cancel|preempt|download|metrics ...")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "submit":
		submit(rest)
	case "wait":
		wait(rest)
	case "show":
		show(rest)
	case "list":
		list()
	case "cancel":
		post(oneID(cmd, rest), "cancel")
	case "preempt":
		post(oneID(cmd, rest), "preempt")
	case "download":
		download(rest)
	case "metrics":
		metrics()
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// oneID extracts the single positional job id a subcommand takes.
func oneID(cmd string, args []string) string {
	if len(args) != 1 {
		log.Fatalf("usage: serve %s JOB-ID", cmd)
	}
	return args[0]
}

// call performs one API request and decodes the JSON response,
// exiting with the server's error message on a non-2xx status.
func call(method, path string, body io.Reader) map[string]any {
	req, err := http.NewRequest(method, *addr+path, body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		log.Fatalf("%s %s: bad response: %v", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		log.Fatalf("%s %s: %d: %v", method, path, resp.StatusCode, v["error"])
	}
	return v
}

func submit(args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		n         = fs.Int64("n", 100000, "number of nodes")
		x         = fs.Int("x", 2, "edges per node")
		p         = fs.Float64("p", 0, "copy-model p (0 = server default)")
		seed      = fs.Uint64("seed", 1, "deterministic seed")
		scheme    = fs.String("scheme", "", "partition scheme (empty = server default)")
		ranks     = fs.Int("job-ranks", 0, "rank slots (0 = server default)")
		workers   = fs.Int("job-workers", 0, "workers per rank (0 = server default)")
		resolve   = fs.String("job-resolve", "", "resolve mode (empty = server default)")
		hubPrefix = fs.Int64("job-hub-prefix", 0, "hub-prefix replica size")
		ckptEvery = fs.Int64("ckpt-every", 0, "checkpoint interval (0 = server default)")
	)
	fs.Parse(args)
	spec := map[string]any{"n": *n, "x": *x, "seed": *seed}
	if *p != 0 {
		spec["p"] = *p
	}
	if *scheme != "" {
		spec["scheme"] = *scheme
	}
	if *ranks != 0 {
		spec["ranks"] = *ranks
	}
	if *workers != 0 {
		spec["workers"] = *workers
	}
	if *resolve != "" {
		spec["resolve"] = *resolve
	}
	if *hubPrefix != 0 {
		spec["hub_prefix"] = *hubPrefix
	}
	if *ckptEvery != 0 {
		spec["checkpoint_every"] = *ckptEvery
	}
	body, _ := json.Marshal(spec)
	j := call("POST", "/jobs", strings.NewReader(string(body)))
	fmt.Println(j["id"])
}

func wait(args []string) {
	if len(args) == 0 {
		log.Fatal("usage: serve wait JOB-ID [-wait-timeout D]")
	}
	id := args[0]
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	timeout := fs.Duration("wait-timeout", 5*time.Minute, "give up after this long")
	fs.Parse(args[1:])
	deadline := time.Now().Add(*timeout)
	for {
		j := call("GET", "/jobs/"+id, nil)
		switch j["state"] {
		case "done":
			fmt.Println("done")
			return
		case "failed", "cancelled":
			log.Fatalf("job %s ended %v: %v", id, j["state"], j["error"])
		}
		if time.Now().After(deadline) {
			log.Fatalf("job %s still %v after %v", id, j["state"], *timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func show(args []string) {
	if len(args) == 0 {
		log.Fatal("usage: serve show JOB-ID [-field F]")
	}
	id := args[0]
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	field := fs.String("field", "", "print only this top-level field")
	fs.Parse(args[1:])
	j := call("GET", "/jobs/"+id, nil)
	if *field != "" {
		printScalar(j[*field])
		return
	}
	out, _ := json.MarshalIndent(j, "", "  ")
	fmt.Println(string(out))
}

func list() {
	j := call("GET", "/jobs", nil)
	jobs, _ := j["jobs"].([]any)
	for _, it := range jobs {
		job := it.(map[string]any)
		fmt.Printf("%v %v\n", job["id"], job["state"])
	}
}

func post(id, verb string) {
	j := call("POST", "/jobs/"+id+"/"+verb, nil)
	fmt.Printf("%v %v\n", j["id"], j["state"])
}

func download(args []string) {
	if len(args) == 0 {
		log.Fatal("usage: serve download JOB-ID -o FILE")
	}
	id := args[0]
	fs := flag.NewFlagSet("download", flag.ExitOnError)
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args[1:])
	if *out == "" {
		log.Fatal("download needs -o FILE")
	}
	resp, err := http.Get(*addr + "/jobs/" + id + "/download")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		log.Fatalf("download %s: %d: %s", id, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	nb, err := io.Copy(f, resp.Body)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %d bytes\n", *out, nb)
}

// metrics prints the /metrics document flattened to sorted
// "dotted.key value" lines — grep/awk fodder for the load-test's
// reconciliation checks.
func metrics() {
	m := call("GET", "/metrics", nil)
	var lines []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, sub := range t {
				key := k
				if prefix != "" {
					key = prefix + "." + k
				}
				walk(key, sub)
			}
		case []any:
			// Bucket arrays: one summable line keeps the output flat.
			lines = append(lines, fmt.Sprintf("%s.len %d", prefix, len(t)))
		default:
			lines = append(lines, fmt.Sprintf("%s %v", prefix, formatScalar(v)))
		}
	}
	walk("", m)
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// formatScalar renders integral float64s (the JSON decoder's numbers)
// without an exponent or decimal point.
func formatScalar(v any) string {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%v", v)
}

func printScalar(v any) {
	fmt.Println(formatScalar(v))
}
