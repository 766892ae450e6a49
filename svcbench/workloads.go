package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"cpsdyn/internal/core"
	"cpsdyn/internal/service"
	"cpsdyn/internal/store"
)

// Request kinds.
const (
	kindBuffered = iota // POST /v1/derive
	kindStream          // POST /v1/derive/stream
	deriveKinds  = 2    // gateway alternates the first two kinds
)

var kindPaths = []string{"/v1/derive", "/v1/derive/stream"}

// item is one prepared request body with what its answer must be.
type item struct {
	kind  int
	body  []byte
	specs []service.DeriveAppSpec
	want  []ref     // reference row per app; nil on cold-derive
	keys  [2]string // cold-derive: the cache keys of the request's two new keys
}

// poolBodies is how many distinct bodies of each kind gateway
// pre-encodes; requests cycle through them.
const poolBodies = 64

// coldBodies is how many cold-derive requests set-up builds ahead; a run
// sends about 70-100 in 20 s, and any beyond these are built as they are
// sent.
const coldBodies = 256

// appsPerRequest is the fleet size of gateway's derives.
const appsPerRequest = 30

var workloads = []string{"cold-derive", "gateway"}

// setupReps is how many times a run builds each workload's set-up; setup_s
// is the median. Cold-derive's set-up of milliseconds needs many
// repetitions to give a steady median; gateway's warm pool costs seconds
// each time.
var setupReps = map[string]int{"cold-derive": 25, "gateway": 3}

// bench is one run of one workload: the in-process service it drives and
// every input it sends.
type bench struct {
	name   string
	seed   uint64
	dir    string // scratch directory of this run (stores)
	client *http.Client

	servers  []*httptest.Server
	base     string   // URL the clients send to
	replicas []string // gateway: replica URLs
	st       *store.Store
	stDir    string
	nstores  int

	pool  []key
	refs  []ref                // reference row per pool key
	items [deriveKinds][]*item // gateway: pre-encoded bodies per kind
	cold  []*item              // cold-derive's first requests, built ahead
	seen  map[string]int       // cold-derive: cache key → request that introduced it
	mu    sync.Mutex           // guards seen and problems
	// problems are failed generator-hygiene assertions; any makes the run
	// incorrect.
	problems []string
}

func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// openStore opens a fresh persistent store and wires it beneath the
// derivation cache, as cpsdynd does for -cache-dir.
func (b *bench) openStore() error {
	b.nstores++
	b.stDir = filepath.Join(b.dir, fmt.Sprintf("store%d", b.nstores))
	st, err := store.Open(b.stDir, store.Options{})
	if err != nil {
		return fmt.Errorf("opening store: %w", err)
	}
	b.st = st
	core.SetDeriveStore(st)
	return nil
}

func (b *bench) closeStore() {
	if b.st == nil {
		return
	}
	core.SetDeriveStore(nil)
	_ = b.st.Close() // always nil; the directory is deleted next
	_ = os.RemoveAll(b.stDir)
	b.st = nil
}

func (b *bench) serve(cfg service.Config) (*httptest.Server, error) {
	h, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	srv := httptest.NewServer(h)
	b.servers = append(b.servers, srv)
	return srv, nil
}

// setup builds the service and everything the workload sends, as far as
// it can before the first timed request.
func (b *bench) setup() error {
	// The cmd/cpsdynd default for -cache-entries.
	core.SetDeriveCacheCapacity(1024, 0)
	b.items = [deriveKinds][]*item{}
	switch b.name {
	case "cold-derive":
		if err := b.openStore(); err != nil {
			return err
		}
		srv, err := b.serve(service.Config{Store: b.st})
		if err != nil {
			return err
		}
		b.base = srv.URL
		b.seen = map[string]int{}
		b.cold = make([]*item, coldBodies)
		for i := range b.cold {
			b.cold[i] = coldItem(b.seed, i)
		}
	case "gateway":
		b.pool = probePool()
		if err := b.derivePool(); err != nil {
			return err
		}
		b.replicas = nil
		for i := 0; i < 2; i++ {
			r, err := b.serve(service.Config{})
			if err != nil {
				return err
			}
			b.replicas = append(b.replicas, r.URL)
		}
		gw, err := b.serve(service.Config{Peers: b.replicas})
		if err != nil {
			return err
		}
		b.base = gw.URL
		b.deriveItems()
	default:
		return fmt.Errorf("unknown workload %q", b.name)
	}
	return nil
}

// teardown undoes setup, leaving the process as a fresh one would be.
func (b *bench) teardown() {
	for _, s := range b.servers {
		s.Close()
	}
	b.servers = nil
	b.client.CloseIdleConnections()
	b.closeStore()
	core.ResetDeriveCache()
}

// deriveInProcess runs specs through service.DeriveStream and returns each
// row's result object.
func deriveInProcess(specs []service.DeriveAppSpec) ([][]byte, error) {
	var out bytes.Buffer
	if _, err := service.DeriveStream(context.Background(), bytes.NewReader(ndjson(specs)), &out, service.StreamOptions{}); err != nil {
		return nil, err
	}
	rec := &record{resp: out.Bytes()}
	rows := streamResults(rec, len(specs))
	if rec.failure != "" {
		return nil, errors.New(rec.failure)
	}
	return rows, nil
}

// derivePool derives every pool key in-process — warming the cache the
// service serves from — and keeps each key's row as the reference the
// served rows must match.
func (b *bench) derivePool() error {
	specs := make([]service.DeriveAppSpec, len(b.pool))
	for i, k := range b.pool {
		specs[i] = k.spec(fmt.Sprintf("k%d", i))
	}
	rows, err := deriveInProcess(specs)
	if err != nil {
		return fmt.Errorf("deriving the pool: %w", err)
	}
	b.refs = make([]ref, len(rows))
	for i, r := range rows {
		b.refs[i] = ref{name: specs[i].Name, row: r}
	}
	return nil
}

// deriveItems pre-encodes gateway's derive bodies: appsPerRequest apps
// each, drawn uniformly from the pool.
func (b *bench) deriveItems() {
	r := seeded(b.seed, 5)
	for i := 0; i < poolBodies; i++ {
		for kind := range deriveKinds {
			specs, idx := drawApps(r, b.pool, appsPerRequest, fmt.Sprintf("w%d.%d", i, kind))
			it := &item{kind: kind, specs: specs, want: make([]ref, len(idx))}
			for j, p := range idx {
				it.want[j] = b.refs[p]
			}
			if kind == kindBuffered {
				it.body, _ = json.Marshal(service.DeriveRequest{Apps: specs}) // finite floats always encode
			} else {
				it.body = ndjson(specs)
			}
			b.items[kind] = append(b.items[kind], it)
		}
	}
}

// coldItem builds cold-derive request seq.
func coldItem(seed uint64, seq int) *item {
	specs, keys := coldRequest(seed, seq)
	return &item{kind: kindStream, body: ndjson(specs), specs: specs,
		keys: [2]string{keys[0].cacheKey(), keys[1].cacheKey()}}
}

// build returns request seq of the workload. It is a pure function of the
// seed and seq.
func (b *bench) build(seq int) request {
	var it *item
	switch b.name {
	case "cold-derive":
		if seq < len(b.cold) {
			it = b.cold[seq]
		} else {
			it = coldItem(b.seed, seq)
		}
	case "gateway":
		kind := seq % 2 // buffered and stream alternate
		it = b.items[kind][(seq/2)%poolBodies]
	}
	return request{seq: seq, it: it}
}

// next is build plus the cold-derive assertion that no key repeats.
func (b *bench) next(seq int) request {
	rq := b.build(seq)
	if b.name == "cold-derive" {
		b.mu.Lock()
		for _, ck := range rq.it.keys {
			if prev, ok := b.seen[ck]; ok {
				b.problems = append(b.problems, fmt.Sprintf("request %d repeats a key of request %d", seq, prev))
			}
			b.seen[ck] = seq
		}
		b.mu.Unlock()
	}
	return rq
}

func names(specs []service.DeriveAppSpec) []string {
	out := make([]string, len(specs))
	for i := range specs {
		out[i] = specs[i].Name
	}
	return out
}

// check verifies one answer byte for byte and counts its rows.
func (b *bench) check(rec *record) {
	if rec.failure != "" {
		return
	}
	it := rec.req.it
	switch it.kind {
	case kindBuffered, kindStream:
		var got [][]byte
		if it.kind == kindBuffered {
			got = bufferedResults(rec, len(it.specs))
		} else {
			got = streamResults(rec, len(it.specs))
		}
		want := it.want
		if want == nil && got != nil {
			// Cold rows have no reference yet; the three apps of one key
			// must at least agree with each other (postCheck re-derives a
			// sample from scratch).
			want = make([]ref, len(got))
			for j := range got {
				want[j] = ref{name: it.specs[j%2].Name, row: got[j%2]}
			}
		}
		matchRows(rec, got, want, names(it.specs))
	}
}

// postChecks is how many served requests cold-derive recomputes from
// scratch after the timed phase.
const postChecks = 2

// postCheck recomputes a seeded sample of cold-derive's served requests
// in-process from an empty cache and store, and compares bytes.
func (b *bench) postCheck(recs []*record) error {
	if b.name != "cold-derive" {
		return nil
	}
	var ok []*record
	for _, r := range recs {
		if r.failure == "" {
			ok = append(ok, r)
		}
	}
	if len(ok) == 0 {
		return nil
	}
	r := seeded(b.seed, 7)
	core.SetDeriveStore(nil) // recompute, never read back what the run stored
	defer func() {
		if b.st != nil {
			core.SetDeriveStore(b.st)
		}
	}()
	for n := 0; n < postChecks && n < len(ok); n++ {
		rec := ok[r.IntN(len(ok))]
		core.ResetDeriveCache()
		it := rec.req.it
		fresh, err := deriveInProcess(it.specs)
		if err != nil {
			return fmt.Errorf("re-deriving request %d: %w", rec.req.seq, err)
		}
		want := make([]ref, len(fresh))
		for j := range fresh {
			want[j] = ref{name: it.specs[j].Name, row: fresh[j]}
		}
		matchRows(rec, streamResults(&record{resp: rec.resp}, len(it.specs)), want, names(it.specs))
	}
	return nil
}

// get fetches a JSON page of the server at base.
func get(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}
