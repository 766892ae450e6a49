package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"cpsdyn/internal/service"
)

// TestMain runs the benchmark itself when the test binary is re-executed
// with SVCBENCH_MAIN=1, so every smoke run below is a fresh process, as the
// benchmark requires.
func TestMain(m *testing.M) {
	if os.Getenv("SVCBENCH_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func requestBytes(name string, seed uint64, n int) [][]byte {
	b := &bench{name: name, seed: seed}
	if name == "gateway" {
		b.pool = probePool()
		b.refs = make([]ref, len(b.pool))
		b.deriveItems()
	}
	var out [][]byte
	for seq := 0; seq < n; seq++ {
		out = append(out, b.build(seq).it.body)
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloads {
		a, again, other := requestBytes(name, 7, 50), requestBytes(name, 7, 50), requestBytes(name, 8, 50)
		if !slices.EqualFunc(a, again, bytes.Equal) {
			t.Errorf("%s: seed 7 gave different request bytes on a second generation", name)
		}
		if slices.EqualFunc(a, other, bytes.Equal) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", name)
		}
	}
}

func TestColdKeysAlwaysNew(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		b := &bench{name: "cold-derive", seed: seed, seen: map[string]int{}}
		for seq := 0; seq < 300; seq++ {
			rq := b.next(seq)
			if got := distinctKeys(rq.it.specs); got != 2 {
				t.Fatalf("seed %d request %d spans %d keys, want 2", seed, seq, got)
			}
		}
		if len(b.problems) != 0 || len(b.seen) != 600 {
			t.Fatalf("seed %d: %d distinct keys in 300 requests, problems %v", seed, len(b.seen), b.problems)
		}
	}
	// The assertion itself must fire on a repeat.
	b := &bench{name: "cold-derive", seed: 1, seen: map[string]int{}}
	b.next(0)
	b.next(0)
	if len(b.problems) == 0 {
		t.Fatal("a repeated cold key went unnoticed")
	}
}

// TestCorruptedRowFails flips every byte of a served row in turn: each
// corrupted answer must count as a failed request and raise error_rate.
func TestCorruptedRowFails(t *testing.T) {
	k := lqrKey(5, 1) // throttle: the cheapest key to derive
	spec := k.spec("x0")
	rows, err := deriveInProcess([]service.DeriveAppSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	it := &item{kind: kindStream, specs: []service.DeriveAppSpec{spec}, want: []ref{{name: "x0", row: rows[0]}}}
	b := &bench{name: "gateway"}
	served := []byte(`{"index":0,"result":` + string(rows[0]) + "}\n")
	ok := &record{req: request{it: it}, resp: served}
	b.check(ok)
	if ok.failure != "" || ok.rows != 1 {
		t.Fatalf("an intact row failed: %s", ok.failure)
	}
	buffered := &record{req: request{it: &item{kind: kindBuffered, specs: it.specs, want: it.want}},
		resp: []byte("{\n  \"apps\": [\n    " + string(rows[0]) + "\n  ],\n  \"cache\": {\"hits\": 9}\n}\n")}
	b.check(buffered)
	if buffered.failure != "" {
		t.Fatalf("an intact buffered row failed: %s", buffered.failure)
	}
	start := bytes.Index(served, rows[0])
	for i := start; i < start+len(rows[0]); i++ {
		bad := bytes.Clone(served)
		bad[i] ^= 0x01
		rec := &record{req: ok.req, resp: bad}
		b.check(rec)
		sum := summarize(&phase{records: []*record{rec}, d: time.Second, marks: make([]usage, numSlices+1)})
		if sum.errorRate() == 0 {
			t.Fatalf("flipping byte %d (%q) of the row went unnoticed", i-start, served[i])
		}
	}
	// A cold row is checked against the other apps of its key.
	cold := &item{kind: kindStream, specs: []service.DeriveAppSpec{spec, k.spec("x1"), k.spec("x2")}}
	two := bytes.Replace(rows[0], []byte(`"x0"`), []byte(`"x2"`), 1)
	two[len(two)-3] ^= 0x01
	resp := fmt.Sprintf("{\"index\":0,\"result\":%s}\n{\"index\":1,\"result\":%s}\n{\"index\":2,\"result\":%s}\n",
		rows[0], bytes.Replace(rows[0], []byte(`"x0"`), []byte(`"x1"`), 1), two)
	rec := &record{req: request{it: cold}, resp: []byte(resp)}
	b.check(rec)
	if rec.failure == "" {
		t.Fatal("a corrupted cold row went unnoticed")
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (e2e, perLayer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(e2e)
	slices.Sort(perLayer)
	return e2e, perLayer
}

// TestSmoke runs each workload briefly in a fresh process and requires a
// correct result carrying exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	e2e, perLayer := benchmarkMetrics(t)
	traces := []string{"0", "1"}
	if testing.Short() {
		traces = traces[:1]
	}
	for _, name := range workloads {
		for _, trace := range traces {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(os.Args[0], "--workload", name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--workdir", t.TempDir())
				cmd.Env = append(os.Environ(), "SVCBENCH_MAIN=1")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s\n%s", err, out, stderr.Bytes())
				}
				var last string
				for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
					last = sc.Text()
				}
				var res result
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run not correct: %+v\n%s", res, out)
				}
				want := e2e
				if trace == "1" {
					want = perLayer
				}
				if got := sortedKeys(res.Metrics); !slices.Equal(got, want) {
					t.Fatalf("metrics %v\nwant %v", got, want)
				}
				if !strings.Contains(string(out), "GOMAXPROCS") {
					t.Errorf("run header missing:\n%s", out)
				}
			})
		}
	}
}

// distinctKeys counts the distinct cache keys among specs.
func distinctKeys(specs []service.DeriveAppSpec) int {
	seen := map[string]bool{}
	for i := range specs {
		seen[appFromSpec(&specs[i], i).CacheKey()] = true
	}
	return len(seen)
}
