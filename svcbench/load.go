package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the closed loop's width: the service's callers (design tools,
// CI pipelines) each wait for their answer before asking again, and the
// benchmark host has two cores.
const clients = 2

// request is one prepared HTTP request. Its body is built before the
// request's clock starts.
type request struct {
	seq int   // position in the workload's request sequence
	it  *item // the body, and what the answer must be
}

// record is one completed request as the client saw it. The client checks
// the response as soon as it has arrived, outside the request's clock, and
// drops it unless a check after the timed phase still needs it; so the
// generator's heap does not grow with the rows a run serves.
type record struct {
	req        request
	start, end time.Duration // since the timed phase began
	latency    time.Duration // send → last response byte
	firstRow   time.Duration // streams: send → first complete row
	resp       []byte
	size       int    // response bytes
	rows       int    // result rows the response carried, set by the check
	failure    string // non-empty when the request failed
}

func (r *record) fail(format string, args ...any) {
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}

// newClient returns an HTTP client holding at most two connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// do sends one request and reads the whole response.
func do(c *http.Client, base string, rq request) *record {
	rec := &record{req: rq}
	stream := rq.it.kind == kindStream
	ctype := "application/json"
	if stream {
		ctype = "application/x-ndjson"
	}
	start := time.Now()
	resp, err := c.Post(base+kindPaths[rq.it.kind], ctype, bytes.NewReader(rq.it.body))
	if err != nil {
		rec.latency = time.Since(start)
		rec.fail("sending: %v", err)
		return rec
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var buf bytes.Buffer
	if stream {
		line, err := br.ReadBytes('\n')
		rec.firstRow = time.Since(start)
		buf.Write(line)
		if err != nil && !errors.Is(err, io.EOF) {
			rec.fail("reading first row: %v", err)
		}
	}
	if _, err := buf.ReadFrom(br); err != nil {
		rec.fail("reading response: %v", err)
	}
	rec.latency = time.Since(start)
	rec.resp = buf.Bytes()
	if resp.StatusCode/100 != 2 {
		rec.fail("status %d: %.200s", resp.StatusCode, rec.resp)
	}
	return rec
}

// usage is a process resource snapshot.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system
	alloc uint64        // runtime.MemStats.TotalAlloc
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	records []*record
	d       time.Duration // the timed window; requests started in it finish after
	marks   []usage       // at the start and at the end of every slice of d
	last    time.Time     // when the last request finished
}

// numSlices is how many equal slices the timed window is cut into. The
// end-to-end metrics are computed per slice and the median slice is
// reported, so a host disturbance that covers less than half of the run
// does not move them.
const numSlices = 10

// closedLoop runs `clients` clients against base until d has elapsed: each
// takes the next request of the sequence, waits for the whole answer, hands
// it to done, and only then asks again. A request started before d elapses
// is always completed and counted.
func closedLoop(c *http.Client, base string, d time.Duration, next func(seq int) request, done func(*record)) *phase {
	var (
		seq  atomic.Int64
		mu   sync.Mutex
		recs []*record
		wg   sync.WaitGroup
	)
	ph := &phase{d: d, marks: []usage{snapshot()}}
	t0 := ph.marks[0].wall
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= numSlices; i++ {
			time.Sleep(time.Until(t0.Add(d * time.Duration(i) / numSlices)))
			ph.marks = append(ph.marks, snapshot())
		}
	}()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				rq := next(int(seq.Add(1) - 1))
				start := time.Since(t0)
				rec := do(c, base, rq)
				rec.start, rec.end = start, time.Since(t0)
				rec.size = len(rec.resp)
				done(rec)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.last = time.Now()
	sort.Slice(recs, func(i, j int) bool { return recs[i].req.seq < recs[j].req.seq })
	ph.records = recs
	return ph
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minSliceSamples is the average number of requests per slice a run needs
// for latency percentiles per slice. With fewer, the percentiles are taken
// over the whole run instead.
const minSliceSamples = 20

// e2e is the end-to-end outcome of one timed phase.
type e2e struct {
	attempted, failed int
	rows              int     // result rows of successful requests
	seconds           float64 // until the last request finished
	// Medians over the slices of the timed window.
	rowsPerS, cpuMS, allocKB []float64 // per slice
	// Latency and first-row percentiles, with their sample counts; sliced
	// reports whether they are medians over slices.
	latP50, latP90, firstP50 float64
	latN, firstN             int
	latSliced, firstSliced   bool
}

func (e e2e) errorRate() float64 {
	if e.attempted == 0 {
		return 1
	}
	return float64(e.failed) / float64(e.attempted)
}

// percentiles returns, for each q, the median over slices of each slice's
// q-quantile when the run has minSliceSamples per slice on average, else
// the whole run's q-quantile.
func percentiles(per [][]float64, qs ...float64) (out []float64, n int, sliced bool) {
	var all []float64
	for _, xs := range per {
		all = append(all, xs...)
	}
	sliced = len(all) >= numSlices*minSliceSamples
	for _, q := range qs {
		if !sliced {
			out = append(out, quantile(all, q))
			continue
		}
		var v []float64
		for _, xs := range per {
			if len(xs) > 0 {
				v = append(v, quantile(xs, q))
			}
		}
		out = append(out, median(v))
	}
	return out, len(all), sliced
}

func summarize(ph *phase) e2e {
	out := e2e{attempted: len(ph.records), seconds: ph.last.Sub(ph.marks[0].wall).Seconds()}
	w := ph.d / numSlices
	rows := make([]float64, numSlices)
	lat := make([][]float64, numSlices)
	first := make([][]float64, numSlices)
	for _, r := range ph.records {
		if r.failure != "" {
			out.failed++
			continue
		}
		out.rows += r.rows
		// A request's rows count in each slice with the share of its
		// duration inside the slice, so a slice's rate does not jump by a
		// whole request's rows with where its edges fall.
		for i := range rows {
			a, b := w*time.Duration(i), w*time.Duration(i+1)
			if in := min(r.end, b) - max(r.start, a); in > 0 {
				rows[i] += float64(r.rows) * float64(in) / float64(r.end-r.start)
			}
		}
		i := min(int(r.start/w), numSlices-1)
		lat[i] = append(lat[i], r.latency.Seconds())
		if r.req.it.kind == kindStream {
			first[i] = append(first[i], r.firstRow.Seconds())
		}
	}
	for i, n := range rows {
		out.rowsPerS = append(out.rowsPerS, n/w.Seconds())
		if n > 0 {
			out.cpuMS = append(out.cpuMS, float64(ph.marks[i+1].cpu-ph.marks[i].cpu)/float64(time.Millisecond)/n)
			out.allocKB = append(out.allocKB, float64(ph.marks[i+1].alloc-ph.marks[i].alloc)/1024/n)
		}
	}
	p, n, sliced := percentiles(lat, 0.5, 0.9)
	out.latP50, out.latP90, out.latN, out.latSliced = p[0], p[1], n, sliced
	p, n, sliced = percentiles(first, 0.5)
	out.firstP50, out.firstN, out.firstSliced = p[0], n, sliced
	return out
}
