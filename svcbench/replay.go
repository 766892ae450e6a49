package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/cluster"
	"cpsdyn/internal/control"
	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/service"
	"cpsdyn/internal/store"
	"cpsdyn/internal/switching"
)

// This file is the traced run: it replays the first requests of the
// workload's seeded sequence in-process, calling each layer's public
// function directly and recording a span around every call. The program
// itself is not instrumented by it; spans live in the benchmark only.
//
// The replay has two parts. The request trees follow each request through
// the layers the service uses for it. The layer pass then takes up to four
// of the replayed keys through the layers the trees could not reach from
// outside the program — discretisation, controller design, curve
// sampling, model fits, probes and the store sit inside
// (*core.Application).DeriveContext — and through every layer the
// workload's own requests do not use, so that each layer is measured on
// every workload's inputs.

// replayRequests is how many requests of each workload the trees replay.
var replayRequests = map[string]int{"cold-derive": 2, "gateway": 40}

// layerKeys bounds the keys the layer pass takes through every layer.
const layerKeys = 4

type replayer struct {
	b   *bench
	t   *tracer
	ctx context.Context
	// apps collects, per replayed key, an application the layer pass can
	// take through every layer.
	apps  []*core.Application
	specs []service.DeriveAppSpec
	seen  map[string]bool
	sess  *cluster.Session
	ring  *cluster.Ring
	// needWarm asks the layer pass for warm derivations: the trees made
	// none.
	needWarm bool
}

func (rp *replayer) addKey(app *core.Application, spec service.DeriveAppSpec) {
	if ck := app.CacheKey(); !rp.seen[ck] {
		rp.seen[ck] = true
		rp.apps = append(rp.apps, app)
		rp.specs = append(rp.specs, spec)
	}
}

// deriveTree replays one derive request: decode, derive every app through
// core, then the request's own service engine, then the row encoding.
func (rp *replayer) deriveTree(req int, it *item) {
	t := rp.t
	t.do("request", 0, req, func(root int) float64 {
		lines := it.body
		if it.kind == kindBuffered {
			lines = ndjson(it.specs)
		}
		var specs []service.DeriveAppSpec
		t.do("service.decode", root, req, func(int) float64 {
			for ln := range service.DecodeRequests(bytes.NewReader(lines), 0) {
				specs = append(specs, *ln.Val)
			}
			return float64(len(specs))
		})
		for i := range specs {
			app := appFromSpec(&specs[i], i)
			before := core.DeriveCacheStats()
			id := t.do("core.derive", root, req, func(int) float64 {
				if _, err := app.DeriveContext(rp.ctx); err != nil {
					rp.b.problem("replay: deriving %s: %v", app.Name, err)
				}
				return 1
			})
			// Name the span by how the cache served it: computed, read
			// through the disk store, or an LRU hit.
			after := core.DeriveCacheStats()
			name := "core.derive_warm"
			switch {
			case after.Misses > before.Misses:
				name = "core.derive_cold"
			case after.DiskHits > before.DiskHits:
				name = "core.derive_disk"
			}
			t.set(id, func(s *span) { s.Name = name })
			rp.addKey(app, specs[i])
		}
		if it.kind == kindStream {
			rp.streamEngine(root, req, lines)
		} else {
			resp := rp.bufferedEngine(root, req, specs)
			rp.encode(root, req, resp)
		}
		return float64(len(specs))
	})
}

func (rp *replayer) streamEngine(parent, req int, lines []byte) {
	rp.t.do("service.derive_stream", parent, req, func(int) float64 {
		st, err := service.DeriveStream(rp.ctx, bytes.NewReader(lines), io.Discard, service.StreamOptions{})
		if err != nil {
			rp.b.problem("replay: stream: %v", err)
		}
		return float64(st.RowsOut)
	})
}

func (rp *replayer) bufferedEngine(parent, req int, specs []service.DeriveAppSpec) *service.DeriveResponse {
	var resp *service.DeriveResponse
	rp.t.do("service.derive_buffered", parent, req, func(int) float64 {
		var err error
		if resp, err = service.Derive(rp.ctx, &service.DeriveRequest{Apps: specs}); err != nil {
			rp.b.problem("replay: derive: %v", err)
			resp = &service.DeriveResponse{}
		}
		return float64(len(resp.Apps))
	})
	return resp
}

func (rp *replayer) encode(parent, req int, resp *service.DeriveResponse) {
	rp.t.do("service.encode", parent, req, func(int) float64 {
		for i := range resp.Apps {
			row := service.StreamRow{Index: i, Result: &resp.Apps[i]}
			if err := service.EncodeResult(io.Discard, row); err != nil {
				rp.b.problem("replay: encode: %v", err)
			}
		}
		return float64(len(resp.Apps))
	})
}

func (rp *replayer) allocate(parent, req int, fr service.FleetRequest) {
	t := rp.t
	t.do("service.allocate", parent, req, func(int) float64 {
		if _, err := service.AllocateFleets([]service.FleetRequest{fr}, 0); err != nil {
			rp.b.problem("replay: allocate: %v", err)
		}
		return float64(len(fr.Apps))
	})
	apps := make([]*sched.App, len(fr.Apps))
	for i, a := range fr.Apps {
		m, _, err := service.BuildModel(a.Model)
		if err != nil {
			rp.b.problem("replay: model of %s: %v", a.Name, err)
			return
		}
		apps[i] = &sched.App{Name: a.Name, R: a.R, Deadline: a.Deadline, Model: m}
	}
	t.do("sched.race", parent, req, func(int) float64 {
		_, _ = sched.AllocateRace(apps, nil, sched.ClosedForm) // an infeasible fleet is still a timed race
		return float64(len(apps))
	})
}

// gatewayTree replays one gateway request: decode, the ring lookup of
// every row's owner, then one peer round trip per row.
func (rp *replayer) gatewayTree(req int, it *item) {
	t := rp.t
	t.do("request", 0, req, func(root int) float64 {
		lines := it.body
		if it.kind == kindBuffered {
			lines = ndjson(it.specs)
		}
		var specs []service.DeriveAppSpec
		t.do("service.decode", root, req, func(int) float64 {
			for ln := range service.DecodeRequests(bytes.NewReader(lines), 0) {
				specs = append(specs, *ln.Val)
			}
			return float64(len(specs))
		})
		apps := make([]*core.Application, len(specs))
		keys := make([]string, len(specs))
		for i := range specs {
			apps[i] = appFromSpec(&specs[i], i)
			keys[i] = apps[i].CacheKey()
			rp.addKey(apps[i], specs[i])
		}
		rp.peerRows(root, req, specs, keys)
		return float64(len(specs))
	})
}

// peerRows looks up each row's owner on the ring, then sends each row to
// its replica over the session, as the gateway does.
func (rp *replayer) peerRows(parent, req int, specs []service.DeriveAppSpec, keys []string) {
	t := rp.t
	t.do("cluster.ring_owner", parent, req, func(int) float64 {
		for _, k := range keys {
			_ = rp.ring.Owner(k)
		}
		return float64(len(keys))
	})
	for i := range specs {
		s := specs[i]
		if s.FrameID == 0 {
			s.FrameID = i + 1
		}
		line, _ := json.Marshal(s)
		t.do("cluster.peer_rtt", parent, req, func(int) float64 {
			if _, ok := rp.sess.Do(rp.ctx, keys[i], line, nil); !ok {
				rp.b.problem("replay: row %s fell back from its replica", s.Name)
			}
			return 1
		})
	}
}

// trees replays the first n requests of the workload.
func (rp *replayer) trees(n int) {
	for seq := 0; seq < n; seq++ {
		rq := rp.b.build(seq)
		switch {
		case rp.b.name == "gateway":
			rp.gatewayTree(seq, rq.it)
		default:
			rp.deriveTree(seq, rq.it)
		}
	}
}

// design is core's controller design for one loop: pole placement when
// poles are given, LQR with core's default weights otherwise.
func design(d *lti.Discrete, poles []complex128) (*mat.Matrix, error) {
	abar, bbar := d.Augmented()
	if len(poles) > 0 {
		return control.Ackermann(abar, bbar, poles)
	}
	n := abar.Rows()
	q := mat.Identity(n)
	q.Set(n-1, n-1, 1e-4)
	k, _, err := control.LQR(abar, bbar, q, mat.Identity(1), control.LQROptions{})
	return k, err
}

// usefulSteps is what a curve's settle runs needed: each run up to its
// last above-threshold sample — the prepass, every kdw, kTT and kET.
func usefulSteps(c *switching.Curve) float64 {
	steps := func(sec float64) float64 { return math.Round(sec / c.H) }
	kET := steps(c.XiET)
	n := kET + steps(c.XiTT) + math.Max(kET-1, 0)
	for _, p := range c.Samples[:len(c.Samples)-1] {
		n += steps(p.Dwell)
	}
	return n
}

// layerKey takes one app through the layers inside DeriveContext, one
// public call at a time, then through the store.
func (rp *replayer) layerKey(kid int, app *core.Application, st *store.Store) {
	t := rp.t
	fail := func(what string, err error) {
		rp.b.problem("layer pass: %s of %s: %v", what, app.Name, err)
	}
	t.do("layers", 0, kid, func(root int) float64 {
		// DeriveContext on a miss, next to the layer calls it is made of,
		// so the two are timed under the same host conditions.
		var derived *core.Derived
		t.do("core.derive_cold", root, kid, func(int) float64 {
			var err error
			if derived, err = app.CloneShallow().DeriveContext(rp.ctx); err != nil {
				fail("derive", err)
			}
			return 1
		})
		if rp.needWarm {
			t.do("core.derive_warm", root, kid, func(int) float64 {
				if _, err := app.CloneShallow().DeriveContext(rp.ctx); err != nil {
					fail("derive", err)
				}
				return 1
			})
		}
		if derived == nil {
			return 0
		}
		// The discretisations and controller designs inside DeriveContext,
		// timed on their own.
		for _, d := range []float64{app.DelayTT, app.DelayET} {
			t.do("lti.discretize", root, kid, func(int) float64 {
				if _, err := lti.Discretize(app.Plant, app.H, d); err != nil {
					fail("discretize", err)
				}
				return 1
			})
		}
		for i, poles := range [][]complex128{app.PolesTT, app.PolesET} {
			disc := []*lti.Discrete{derived.DiscTT, derived.DiscET}[i]
			t.do("control.design", root, kid, func(int) float64 {
				if _, err := design(disc, poles); err != nil {
					fail("design", err)
				}
				return 1
			})
		}
		// Curve sampling of the very system core sampled, with core's
		// options.
		var curve *switching.Curve
		t.do("switching.sample_curve", root, kid, func(id int) float64 {
			s0 := switching.SimSteps()
			var err error
			curve, err = derived.Sys.SampleCurveWith(switching.SampleCurveOptions{
				Workers: core.CurveSamplingWorkers(), Context: rp.ctx})
			steps := float64(switching.SimSteps() - s0)
			if err != nil {
				fail("sample curve", err)
				return steps
			}
			t.set(id, func(s *span) { s.Useful = usefulSteps(curve) })
			return steps
		})
		if curve == nil {
			return 0
		}
		t.do("pwl.fit", root, kid, func(int) float64 {
			if _, _, _, err := curve.FitModels(); err != nil {
				fail("fit", err)
			}
			return 1
		})
		t.do("core.probe_settle", root, kid, func(int) float64 {
			s0 := switching.SimSteps()
			if _, _, err := app.CloneShallow().ProbeSettleContext(rp.ctx); err != nil {
				fail("probe settle", err)
			}
			return float64(switching.SimSteps() - s0)
		})
		arts := []any{derived.DiscTT, derived.DiscET, curve}
		for i, v := range arts {
			t.do("store.put", root, kid, func(int) float64 {
				st.Put(fmt.Sprintf("svcbench|%d|%d", kid, i), v)
				return 1
			})
		}
		st.Flush()
		for i := range arts {
			t.do("store.get", root, kid, func(int) float64 {
				if _, ok := st.Get(fmt.Sprintf("svcbench|%d|%d", kid, i)); !ok {
					fail("store get", fmt.Errorf("record %d missing", i))
				}
				return 1
			})
		}
		return 1
	})
}

// pickKeys chooses the layer pass's keys: up to two of each family, in
// replay order.
func (rp *replayer) pickKeys() ([]*core.Application, []service.DeriveAppSpec) {
	var apps []*core.Application
	var specs []service.DeriveAppSpec
	per := map[bool]int{}
	for i, a := range rp.apps {
		probe := a.Plant.Name == "probe"
		if per[probe] < layerKeys/2 {
			per[probe]++
			s := rp.specs[i]
			s.Name = fmt.Sprintf("L%d", len(apps))
			s.FrameID = 0
			apps = append(apps, a)
			specs = append(specs, s)
		}
	}
	return apps, specs
}

// layers is the layer pass. It measures, on the replayed keys, every layer
// whose span the request trees did not produce.
func (rp *replayer) layers(dir string) (peer cluster.Stats, st store.Stats, nkeys int, err error) {
	t := rp.t
	apps, specs := rp.pickKeys()
	if len(apps) == 0 {
		return peer, st, 0, fmt.Errorf("no keys to replay")
	}
	lst, err := store.Open(dir, store.Options{})
	if err != nil {
		return peer, st, 0, fmt.Errorf("opening the layer store: %w", err)
	}
	defer lst.Close()
	// Every derivation below must miss and recompute, so the keys, warm
	// from the timed phase or the trees, are forgotten first.
	core.SetDeriveStore(nil)
	core.ResetDeriveCache()
	rp.needWarm = !t.has("core.derive_warm")
	for i, a := range apps {
		rp.layerKey(i, a, lst)
	}
	req := len(apps)
	t.do("layers", 0, req, func(root int) float64 {
		lines := ndjson(specs)
		if !t.has("service.decode") {
			t.do("service.decode", root, req, func(int) float64 {
				n := 0
				for range service.DecodeRequests(bytes.NewReader(lines), 0) {
					n++
				}
				return float64(n)
			})
		}
		resp := rp.bufferedEngine(root, req, specs)
		if !t.has("service.derive_stream") {
			rp.streamEngine(root, req, lines)
		}
		if !t.has("service.encode") {
			rp.encode(root, req, resp)
		}
		if !t.has("service.allocate") && len(resp.Apps) == len(specs) {
			// Rows without a rising phase (kp = 0) carry a model the
			// allocator rejects; they stay out of the fleet.
			fr := service.FleetRequest{Policy: "race"}
			for i, row := range resp.Apps {
				if _, _, err := service.BuildModel(row.Model); err == nil {
					fr.Apps = append(fr.Apps, service.AppSpec{Name: row.Name,
						R: specs[i].R, Deadline: specs[i].Deadline, Model: row.Model})
				}
			}
			if len(fr.Apps) > 0 {
				rp.allocate(root, req, fr)
			}
		}
		if !t.has("casestudy.calibrate") && len(resp.Apps) > 0 {
			// Calibrate the first key back onto its own response times.
			row := resp.Apps[0]
			app := apps[0].CloneShallow()
			app.PolesTT, app.PolesET = nil, nil
			t.do("casestudy.calibrate", root, req, func(int) float64 {
				if err := casestudy.Calibrate(rp.ctx, app, row.XiTT, row.XiET, 0); err != nil {
					rp.b.problem("layer pass: calibrate %s: %v", app.Name, err)
				}
				return 1
			})
		}
		return float64(len(specs))
	})
	if !t.has("cluster.peer_rtt") {
		// Route the keys through two replicas, as a gateway would.
		var urls []string
		for i := 0; i < 2; i++ {
			srv, err := rp.b.serve(service.Config{})
			if err != nil {
				return peer, st, 0, err
			}
			urls = append(urls, srv.URL)
		}
		g, err := cluster.New(cluster.Config{Peers: urls})
		if err != nil {
			return peer, st, 0, err
		}
		rp.ring = g.Ring()
		rp.sess = g.Session(rp.ctx, runtime.GOMAXPROCS(0))
		keys := make([]string, len(apps))
		for i, a := range apps {
			keys[i] = a.CacheKey()
		}
		t.do("layers", 0, req+1, func(root int) float64 {
			rp.peerRows(root, req+1, specs, keys)
			return float64(len(specs))
		})
		rp.sess.Close()
		peer = g.Stats()
	}
	return peer, lst.Stats(), len(apps), nil
}

// replayResult is what the traced run reports besides the spans.
type replayResult struct {
	untraced, traced time.Duration // median request-tree pass without and with spans
	passes           int           // traced passes; their spans are all kept
	peer             cluster.Stats // the layer pass's own gateway, when it ran one
	store            store.Stats   // the layer pass's store
	puts             int           // records the layer pass offered its store
}

// passOrder is the order of the untraced (false) and traced (true)
// request-tree passes. The ABBA pattern cancels a steady drift in host
// speed between the two kinds, and the median of three resists one
// disturbed pass.
var passOrder = []bool{false, true, true, false, false, true}

// replay runs the request trees untraced and traced, alternately, then the
// layer pass. Before every tree pass the cold workloads start again from
// an empty cache (and, for cold-derive, an empty store), so every pass
// does the same work.
func (b *bench) replay(t *tracer) (replayResult, error) {
	var res replayResult
	rp := &replayer{b: b, ctx: context.Background(), seen: map[string]bool{}}
	if b.name == "gateway" {
		g, err := cluster.New(cluster.Config{Peers: b.replicas})
		if err != nil {
			return res, err
		}
		rp.ring = g.Ring()
		rp.sess = g.Session(rp.ctx, runtime.GOMAXPROCS(0))
		defer rp.sess.Close()
	}
	fresh := func() error {
		switch b.name {
		case "cold-derive":
			b.closeStore()
			core.ResetDeriveCache()
			return b.openStore()
		}
		return nil
	}
	untraced := newTracer(false)
	if b.name == "gateway" {
		// Its passes do not start from scratch, so an untimed pass first
		// settles what the first one would otherwise pay alone: peer
		// streams, pooled buffers, the LRU order.
		rp.t = untraced
		rp.trees(replayRequests[b.name])
	}
	var times [2][]float64
	for _, traced := range passOrder {
		if err := fresh(); err != nil {
			return res, err
		}
		rp.t = untraced
		if traced {
			rp.t = t
			res.passes++
		}
		rp.seen = map[string]bool{}
		rp.apps, rp.specs = nil, nil
		runtime.GC() // every pass starts from a collected heap
		start := time.Now()
		rp.trees(replayRequests[b.name])
		k := 0
		if traced {
			k = 1
		}
		times[k] = append(times[k], time.Since(start).Seconds())
	}
	sec := func(xs []float64) time.Duration { return time.Duration(median(xs) * float64(time.Second)) }
	res.untraced, res.traced = sec(times[0]), sec(times[1])
	rp.t = t
	peer, st, nkeys, err := rp.layers(fmt.Sprintf("%s/layerstore", b.dir))
	res.peer, res.store, res.puts = peer, st, 3*nkeys
	return res, err
}
