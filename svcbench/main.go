// Command svcbench is the service-level benchmark of cpsdyn. It starts the
// cpsdynd service in-process behind real loopback HTTP (the NDJSON
// endpoints are full duplex), wires it as cmd/cpsdynd does, drives one
// workload with a closed loop of two clients for a fixed time, checks every
// answer byte for byte, and prints every metric by name with its unit. The
// last line of its output is one JSON object with the run's verdict and
// metrics.
//
// Usage:
//
//	svcbench --workload cold-derive|gateway --seed N
//	         --seconds S --trace 0|1 [--workdir DIR]
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same timed phase runs, then a replay of the workload's first requests
// through each layer's public functions records spans, and the result
// carries the per-layer metrics. Each run must be a fresh process: the
// derivation cache, the store wiring, the curve-worker width and the
// simulation-step counter are process-wide. See README.md for the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cpsdyn/internal/obs"
	"cpsdyn/internal/service"
	"cpsdyn/internal/store"
)

// procStart approximates the process start: package initialisation runs
// before anything the benchmark does.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-derive or gateway")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = replay the workload through every layer with spans and report per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's stores and span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *name) || *seconds <= 0 ||
		(*traceFlag != 0 && *traceFlag != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: svcbench --workload cold-derive|gateway --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{name: *name, seed: *seed, dir: dir, client: newClient()}
	res, err := b.run(stdout, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *workdir)
	if err != nil {
		fmt.Fprintf(stderr, "svcbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "svcbench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// counters are the /statsz deltas of the timed phase.
type counters struct {
	hits, misses, diskHits uint64
	store                  *store.Stats // nil when the service runs without a store
	peerRows, fallbacks    uint64
	gateway                bool
	curveSampleSec         float64 // /tracez curveSample stage sum
	curveSampleN           uint64
}

func (b *bench) statsz() (service.StatszResponse, error) {
	var s service.StatszResponse
	err := get(b.client, b.base+"/statsz", &s)
	return s, err
}

func (b *bench) run(w io.Writer, d time.Duration, traced bool, workdir string) (*result, error) {
	var setupSec []float64
	for i := 0; i < setupReps[b.name]; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		} else {
			b.teardown()
			b.problems = nil
		}
		if err := b.setup(); err != nil {
			return nil, err
		}
		setupSec = append(setupSec, time.Since(start).Seconds())
	}
	defer b.teardown()

	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", b.name, b.seed, d.Seconds(), traced)
	fmt.Fprintf(w, "host nproc %d GOMAXPROCS %d %s, %d closed-loop clients\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients)
	b.describe(w)

	before, err := b.statsz()
	if err != nil {
		return nil, fmt.Errorf("reading /statsz: %w", err)
	}
	if b.name == "cold-derive" {
		c := before.Cache
		if c.Hits+c.Misses+c.DiskHits != 0 || c.Entries != 0 || before.Store == nil || before.Store.Records != 0 {
			b.problem("cold-derive does not start from an empty cache and store: %+v", c)
		}
	}
	ph := closedLoop(b.client, b.base, d, b.next, func(rec *record) {
		b.check(rec)
		if b.name == "gateway" {
			rec.resp = nil // only cold-derive's post-check reads responses again
		}
	})
	if b.st != nil {
		b.st.Flush()
	}
	after, err := b.statsz()
	if err != nil {
		return nil, fmt.Errorf("reading /statsz: %w", err)
	}
	c := counters{
		hits:     after.Cache.Hits - before.Cache.Hits,
		misses:   after.Cache.Misses - before.Cache.Misses,
		diskHits: after.Cache.DiskHits - before.Cache.DiskHits,
	}
	if after.Store != nil {
		c.store = &store.Stats{Loads: after.Store.Loads - before.Store.Loads,
			Stores: after.Store.Stores - before.Store.Stores}
	}
	if after.Gateway != nil {
		c.gateway = true
		c.peerRows = after.Gateway.PeerRows - before.Gateway.PeerRows
		c.fallbacks = after.Gateway.PeerFallbacks - before.Gateway.PeerFallbacks
	}
	for _, s := range b.servers {
		var tz service.TracezResponse
		if err := get(b.client, s.URL+"/tracez", &tz); err != nil {
			return nil, fmt.Errorf("reading /tracez: %w", err)
		}
		for _, tr := range tz.Traces {
			for _, st := range tr.Stages {
				if st.Stage == obs.StageCurveSample.String() {
					c.curveSampleSec += st.Seconds
					c.curveSampleN += st.Count
				}
			}
		}
	}
	if b.name == "cold-derive" {
		if c.diskHits != 0 || c.misses < uint64(len(b.seen)) {
			b.problem("cold-derive was not cold: %d disk hits, %d misses for %d new keys",
				c.diskHits, c.misses, len(b.seen))
		}
	}

	if err := b.postCheck(ph.records); err != nil {
		return nil, err
	}
	sum := summarize(ph)
	respBytes := 0
	for _, r := range ph.records {
		if r.failure == "" {
			respBytes += r.size
		}
	}
	if b.name == "cold-derive" {
		fmt.Fprintf(w, "distinct keys served %d (all new)\n", len(b.seen))
	}
	for _, r := range ph.records {
		if r.failure != "" {
			fmt.Fprintf(w, "FAILED request %d (%s): %s\n", r.req.seq, kindPaths[r.req.it.kind], r.failure)
		}
	}

	res := &result{Attempted: sum.attempted, Failed: sum.failed}
	e2eMetrics := map[string]metric{
		"setup_s":          {median(setupSec), "s"},
		"rows_per_s":       {median(sum.rowsPerS), "rows/s"},
		"latency_p50_s":    {sum.latP50, "s"},
		"first_row_p50_s":  {sum.firstP50, "s"},
		"cpu_ms_per_row":   {median(sum.cpuMS), "ms"},
		"alloc_kb_per_row": {median(sum.allocKB), "KiB"},
		"max_rss_mb":       {maxRSSMiB(), "MiB"},
	}
	over := func(sliced bool) string {
		if sliced {
			return fmt.Sprintf("median over %d slices", numSlices)
		}
		return fmt.Sprintf("whole run: fewer than %d per slice", minSliceSamples)
	}
	fmt.Fprintf(w, "setup_s %.6f s (median of %d set-ups, %.6f–%.6f s)\n", median(setupSec), len(setupSec),
		slices.Min(setupSec), slices.Max(setupSec))
	fmt.Fprintf(w, "requests %d failed %d error_rate %g rows %d, last answer at %.3f s\n",
		sum.attempted, sum.failed, sum.errorRate(), sum.rows, sum.seconds)
	fmt.Fprintf(w, "rows_per_s %.4f rows/s (median of %d slices: %.4g)\n",
		e2eMetrics["rows_per_s"].Value, numSlices, sum.rowsPerS)
	fmt.Fprintf(w, "latency_p50_s %.6f s; p90 %.6f s, not gated (n=%d, %s); whole-run p99 %.6f s, not gated\n",
		sum.latP50, sum.latP90, sum.latN, over(sum.latSliced), quantile(allLat(ph), 0.99))
	fmt.Fprintf(w, "first_row_p50_s %.6f s (n=%d, %s)\n", sum.firstP50, sum.firstN, over(sum.firstSliced))
	fmt.Fprintf(w, "cpu_ms_per_row %.4f ms alloc_kb_per_row %.3f KiB (medians of slices %.4g / %.4g) max_rss_mb %.1f MiB\n",
		median(sum.cpuMS), median(sum.allocKB), sum.cpuMS, sum.allocKB, maxRSSMiB())
	fmt.Fprintf(w, "statsz deltas: cache hits %d diskHits %d misses %d", c.hits, c.diskHits, c.misses)
	if c.store != nil {
		fmt.Fprintf(w, "; store loads %d stores %d", c.store.Loads, c.store.Stores)
	}
	if c.gateway {
		fmt.Fprintf(w, "; gateway peerRows %d peerFallbacks %d", c.peerRows, c.fallbacks)
	}
	fmt.Fprintln(w)

	if !traced {
		res.Metrics = e2eMetrics
	} else {
		perLayer, err := b.traced(w, c, sum, respBytes, workdir)
		if err != nil {
			return nil, err
		}
		res.Metrics = perLayer
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.problem("metric %s is %g", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "FAILED check: %s\n", p)
	}
	res.Correct = sum.failed == 0 && sum.attempted > 0 && len(b.problems) == 0
	return res, nil
}

// allLat is every successful request's latency in seconds.
func allLat(ph *phase) []float64 {
	var out []float64
	for _, r := range ph.records {
		if r.failure == "" {
			out = append(out, r.latency.Seconds())
		}
	}
	return out
}

// describe prints what the workload sends.
func (b *bench) describe(w io.Writer) {
	switch b.name {
	case "cold-derive":
		fmt.Fprintln(w, "mix: 100% POST /v1/derive/stream, 6 apps over 2 new keys (1 probe-plant, 1 LQR-plant) each; disk store on")
	case "gateway":
		fmt.Fprintf(w, "mix: alternating POST /v1/derive and /v1/derive/stream (%d apps) through a gateway over 2 replicas\n", appsPerRequest)
		fmt.Fprintf(w, "pool: %d distinct keys held warm in the process-wide cache (replicas share it: hop and routing cost, not shard locality)\n",
			len(b.pool))
	}
}

// traced runs the replay and derives the per-layer metrics.
func (b *bench) traced(w io.Writer, c counters, sum e2e, respBytes int, workdir string) (map[string]metric, error) {
	t := newTracer(true)
	rr, err := b.replay(t)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	st := t.stats()
	fmt.Fprintln(w, "per-layer spans (traced replay):")
	printTable(w, st)
	path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.seed))
	if err := t.writeSpans(path, b.name, b.seed); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "span file %s (%d spans)\n", path, len(t.spans))

	overhead := 0.0
	if rr.untraced > 0 {
		overhead = rr.traced.Seconds()/rr.untraced.Seconds() - 1
	}
	rows := st["request"].work / float64(rr.passes)
	fmt.Fprintf(w, "tracing overhead: request-tree pass (median of %d each) %.4f s untraced (%.2f rows/s), %.4f s traced (%.2f rows/s): %+.2f%%\n",
		rr.passes, rr.untraced.Seconds(), rows/rr.untraced.Seconds(), rr.traced.Seconds(), rows/rr.traced.Seconds(), 100*overhead)
	sc := st["switching.sample_curve"]
	if req := st["request"]; b.name == "cold-derive" && req != nil && req.total > 0 {
		// Sampling's share of a cold derive, timed side by side in the
		// layer pass, applied to the cold derives of the request trees.
		cold := t.sumUnder("core.derive_cold", "request")
		layerCold := t.sumUnder("core.derive_cold", "layers")
		if layerCold > 0 {
			inDerive := float64(t.sumUnder("switching.sample_curve", "layers")) / float64(layerCold)
			fmt.Fprintf(w, "switching.sample_curve is %.2f%% of a cold derive and %.2f%% of the request trees' time\n",
				100*inDerive, 100*inDerive*float64(cold)/float64(req.total))
		}
	}
	if sc != nil {
		fmt.Fprintf(w, "curve sampling: benchmark spans %d curves %.3f ms (%.3f ms/curve); /tracez curveSample %d curves %.3f ms",
			sc.calls, ms(sc.total), sc.perCall(time.Millisecond), c.curveSampleN, 1e3*c.curveSampleSec)
		if c.curveSampleN > 0 {
			fmt.Fprintf(w, " (%.3f ms/curve)", 1e3*c.curveSampleSec/float64(c.curveSampleN))
		}
		fmt.Fprintln(w)
	}

	frac := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	lookups := c.hits + c.misses + c.diskHits
	memHit := 0.0
	if lookups > 0 {
		memHit = float64(c.hits) / float64(lookups)
	}
	// Store and gateway counters come from the timed phase's /statsz where
	// the workload runs that layer, else from the layer pass's own store
	// and gateway.
	loads, stores, dropped := rr.store.Loads, rr.store.Stores, sub(uint64(rr.puts), rr.store.Stores)
	if c.store != nil {
		// Every miss writes its artefact behind; after the flush, what
		// was not stored was dropped.
		loads, stores, dropped = c.store.Loads, c.store.Stores, sub(c.misses, c.store.Stores)
	}
	peerFrac := frac(rr.peer.PeerRows, rr.peer.PeerFallbacks)
	if c.gateway {
		peerFrac = frac(c.peerRows, c.fallbacks)
	}
	useful := 0.0
	if sc != nil && sc.work > 0 {
		useful = sc.useful / sc.work
	}
	steps := func(l *layerStat) float64 {
		if l == nil || l.calls == 0 {
			return 0
		}
		return l.work / float64(l.calls)
	}
	bytesPerRow := 0.0
	if sum.rows > 0 {
		bytesPerRow = float64(respBytes) / float64(sum.rows)
	}
	us, msU := time.Microsecond, time.Millisecond
	m := map[string]metric{
		"switching.sample_curve_ms":      {sc.perCall(msU), "ms"},
		"switching.steps_per_curve":      {steps(sc), "count"},
		"switching.useful_step_frac":     {useful, "ratio"},
		"switching.ns_per_step":          {sc.perWork(time.Nanosecond), "ns"},
		"core.derive_cold_ms":            {st["core.derive_cold"].perCall(msU), "ms"},
		"core.derive_warm_us":            {st["core.derive_warm"].perCall(us), "us"},
		"core.probe_settle_ms":           {st["core.probe_settle"].perCall(msU), "ms"},
		"core.steps_per_probe":           {steps(st["core.probe_settle"]), "count"},
		"core.mem_hit_frac":              {memHit, "ratio"},
		"lti.discretize_us":              {st["lti.discretize"].perCall(us), "us"},
		"pwl.fit_us":                     {st["pwl.fit"].perCall(us), "us"},
		"control.design_us":              {st["control.design"].perCall(us), "us"},
		"casestudy.calibrate_ms":         {st["casestudy.calibrate"].perCall(msU), "ms"},
		"service.decode_us_per_row":      {st["service.decode"].perWork(us), "us"},
		"service.encode_us_per_row":      {st["service.encode"].perWork(us), "us"},
		"service.derive_buffered_ms":     {st["service.derive_buffered"].perCall(msU), "ms"},
		"service.derive_stream_ms":       {st["service.derive_stream"].perCall(msU), "ms"},
		"service.allocate_ms":            {st["service.allocate"].perCall(msU), "ms"},
		"sched.race_us":                  {st["sched.race"].perCall(us), "us"},
		"service.response_bytes_per_row": {bytesPerRow, "bytes"},
		"store.get_us":                   {st["store.get"].perCall(us), "us"},
		"store.put_us":                   {st["store.put"].perCall(us), "us"},
		"store.loads":                    {float64(loads), "count"},
		"store.stores":                   {float64(stores), "count"},
		"store.dropped":                  {float64(dropped), "count"},
		"cluster.peer_rtt_us":            {st["cluster.peer_rtt"].perCall(us), "us"},
		"cluster.peer_row_frac":          {peerFrac, "ratio"},
		"cluster.ring_owner_ns":          {st["cluster.ring_owner"].perWork(time.Nanosecond), "ns"},
		"trace.overhead_frac":            {overhead, "ratio"},
	}
	fmt.Fprintln(w, "per-layer metrics:")
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	return m, nil
}

func sub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
