package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"cpsdyn/internal/cluster"
	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
)

// PlantSpec is the JSON form of a continuous-time LTI plant
// ẋ = A·x + B·u, y = C·x. Matrices are row-major nested arrays; C may be
// omitted for full-state plants.
type PlantSpec struct {
	Name string      `json:"name,omitempty"`
	A    [][]float64 `json:"a"`
	B    [][]float64 `json:"b"`
	C    [][]float64 `json:"c,omitempty"`
}

// DeriveAppSpec describes one control application for batch derivation:
// the plant, its timing, the disturbance model and (optionally) real
// pole-placement targets. Omitted poles select the LQR defaults; an omitted
// frame ID is assigned from the app's position. Times are in seconds.
type DeriveAppSpec struct {
	Name     string    `json:"name"`
	Plant    PlantSpec `json:"plant"`
	H        float64   `json:"h"`
	DelayTT  float64   `json:"delayTT"`
	DelayET  float64   `json:"delayET"`
	Eth      float64   `json:"eth"`
	X0       []float64 `json:"x0"`
	R        float64   `json:"r"`
	Deadline float64   `json:"deadline"`
	FrameID  int       `json:"frameID,omitempty"`
	PolesTT  []float64 `json:"polesTT,omitempty"`
	PolesET  []float64 `json:"polesET,omitempty"`
}

// DeriveRequest is the POST /v1/derive body: a fleet to derive and an
// optional worker-pool bound (≤ 0 selects GOMAXPROCS).
type DeriveRequest struct {
	Workers int             `json:"workers,omitempty"`
	Apps    []DeriveAppSpec `json:"apps"`
}

// DeriveResult is one application's Table-I-style timing row plus the
// fitted non-monotonic model in allocation-request form, so a derive
// response pastes directly into POST /v1/allocate.
type DeriveResult struct {
	Name         string    `json:"name"`
	XiTT         float64   `json:"xiTT"`
	XiET         float64   `json:"xiET"`
	XiM          float64   `json:"xiM"`
	Kp           float64   `json:"kp"`
	XiPrimeM     float64   `json:"xiPrimeM"`
	NonMonotonic bool      `json:"nonMonotonic"`
	Model        ModelSpec `json:"model"`
}

// DeriveResponse is the POST /v1/derive reply. Cache is the shared
// derivation cache's cumulative counters after this request — sequential
// identical requests show the hit counter climbing, which is the service's
// reason to exist.
type DeriveResponse struct {
	Apps  []DeriveResult  `json:"apps"`
	Cache core.CacheStats `json:"cache"`
}

// matrix validates rectangularity and finiteness before mat.FromRows, which
// panics on ragged input — a malformed request must surface as an error
// instead, and NaN/±Inf entries would otherwise wander into the matrix
// exponentials and settling simulations (JSON cannot spell them, but the
// Go-level codec callers can).
func matrix(field string, rows [][]float64) (*mat.Matrix, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	want := len(rows[0])
	for i, r := range rows {
		if len(r) != want {
			return nil, fmt.Errorf("matrix %s: row %d has %d entries, want %d", field, i, len(r), want)
		}
		for j, v := range r {
			if !isFinite(v) {
				return nil, fmt.Errorf("matrix %s: entry (%d,%d) = %g is not finite", field, i, j, v)
			}
		}
	}
	return mat.FromRows(rows), nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finiteScalars rejects NaN/±Inf in the spec's scalar and vector fields.
func finiteScalars(fields map[string]float64, vecs map[string][]float64) error {
	for name, v := range fields {
		if !isFinite(v) {
			return fmt.Errorf("field %s = %g is not finite", name, v)
		}
	}
	for name, vec := range vecs {
		for i, v := range vec {
			if !isFinite(v) {
				return fmt.Errorf("field %s[%d] = %g is not finite", name, i, v)
			}
		}
	}
	return nil
}

func realPoles(ps []float64) []complex128 {
	if len(ps) == 0 {
		return nil
	}
	out := make([]complex128, len(ps))
	for i, p := range ps {
		out[i] = complex(p, 0)
	}
	return out
}

// application compiles the spec into a core.Application; i is the app's
// position, used for the default frame ID. Every failure is a *RequestError.
func (s *DeriveAppSpec) application(i int) (*core.Application, error) {
	fail := func(err error) (*core.Application, error) {
		return nil, &RequestError{App: s.Name, Err: err}
	}
	a, err := matrix("a", s.Plant.A)
	if err != nil {
		return fail(err)
	}
	b, err := matrix("b", s.Plant.B)
	if err != nil {
		return fail(err)
	}
	c, err := matrix("c", s.Plant.C)
	if err != nil {
		return fail(err)
	}
	if err := finiteScalars(map[string]float64{
		"h": s.H, "delayTT": s.DelayTT, "delayET": s.DelayET,
		"eth": s.Eth, "r": s.R, "deadline": s.Deadline,
	}, map[string][]float64{
		"x0": s.X0, "polesTT": s.PolesTT, "polesET": s.PolesET,
	}); err != nil {
		return fail(err)
	}
	plantName := s.Plant.Name
	if plantName == "" {
		plantName = s.Name
	}
	frameID := s.FrameID
	if frameID == 0 {
		frameID = i + 1
	}
	return &core.Application{
		Name:     s.Name,
		Plant:    &lti.Continuous{Name: plantName, A: a, B: b, C: c},
		H:        s.H,
		DelayTT:  s.DelayTT,
		DelayET:  s.DelayET,
		Eth:      s.Eth,
		X0:       append([]float64(nil), s.X0...),
		R:        s.R,
		Deadline: s.Deadline,
		FrameID:  frameID,
		PolesTT:  realPoles(s.PolesTT),
		PolesET:  realPoles(s.PolesET),
	}, nil
}

// applications compiles every spec of the request. It rejects duplicate app
// names — like the allocate path always has — because a batch answering two
// different rows under one name is ambiguous downstream (allocation keys
// results by name). Every failure is a *RequestError.
func (req *DeriveRequest) applications() ([]*core.Application, error) {
	return compileApps(req.Apps, (*DeriveAppSpec).name, (*DeriveAppSpec).application)
}

func (s *DeriveAppSpec) name() string { return s.Name }

// compileApps is the buffered endpoints' up-front validation: every spec
// compiled in order through the streams' duplicate-name source, the first
// failure returned.
func compileApps[T any](specs []T, name func(*T) string,
	compile func(*T, int) (*core.Application, error)) ([]*core.Application, error) {
	if len(specs) == 0 {
		return nil, &RequestError{Err: errors.New("no apps in request")}
	}
	apps := make([]*core.Application, len(specs))
	for ln := range uniqueNames(lines(specs), name) {
		if ln.Err != nil {
			return nil, ln.Err
		}
		a, err := compile(ln.Val, ln.Index)
		if err != nil {
			return nil, err
		}
		apps[ln.Index] = a
	}
	return apps, nil
}

// compiled is a row function's first step: the buffered path's validated
// application for row i, or — on a stream, where apps is nil — the row's
// spec compiled now.
func compiled(apps []*core.Application, i int, compile func(int) (*core.Application, error)) (*core.Application, error) {
	if apps != nil {
		return apps[i], nil
	}
	return compile(i)
}

// Derive compiles the request into a fleet, derives it on the shared memo
// cache across a bounded worker pool and reports one timing row per app in
// input order. A ctx expiry aborts the in-flight matrix work promptly.
func Derive(ctx context.Context, req *DeriveRequest) (*DeriveResponse, error) {
	return derive(ctx, req, nil)
}

// derive is Derive with the rows routed through gw (see routeFor).
func derive(ctx context.Context, req *DeriveRequest, gw *cluster.Gateway) (*DeriveResponse, error) {
	apps, err := req.applications()
	if err != nil {
		return nil, err
	}
	route, done := routeFor(ctx, gw, effectiveWorkers(req.Workers))
	defer done()
	rows, errs, err := collect(ctx, req.Workers, req.Apps, deriveRow(apps, route))
	if err == nil {
		err = errors.Join(errs...)
	}
	if err != nil {
		return nil, err
	}
	return &DeriveResponse{Apps: rows, Cache: core.DeriveCacheStats()}, nil
}

// DeriveStream runs the streaming derivation pipeline: NDJSON DeriveAppSpec
// lines in from r, NDJSON StreamRows out to w in input order, derived across
// a bounded worker pool with at most O(workers + window) rows buffered. The
// first result is written while later requests are still being read.
//
// Per-line failures (malformed JSON, duplicate or invalid apps, derivation
// errors) become error rows and never abort the stream. A ctx expiry stops
// it mid-flight and is returned (the caller decides whether a terminal row
// can still be written); a write failure on w stops it likewise.
func DeriveStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	return deriveStream(ctx, r, w, opts, nil)
}

// deriveStream is DeriveStream with the rows routed through gw (see
// routeFor).
func deriveStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions, gw *cluster.Gateway) (StreamStats, error) {
	route, done := routeFor(ctx, gw, effectiveWorkers(opts.Workers))
	defer done()
	return runStream(ctx, r, w, opts, (*DeriveAppSpec).name, deriveRow(nil, route),
		func(res result[DeriveResult]) StreamRow {
			if res.err != nil {
				return StreamRow{Index: res.index, Error: res.err.Error(), Cancelled: isCancellation(res.err)}
			}
			return StreamRow{Index: res.index, Result: &res.val}
		})
}

// deriveRow is the derive operation's one row function, for both framings
// on a single node and on a gateway: offer the compiled app to the gateway
// route hook when there is one, and derive it on the shared memo cache
// otherwise — including when the hook declines the row.
func deriveRow(apps []*core.Application, route routeHook) rowFunc[DeriveAppSpec, DeriveResult] {
	return func(ctx context.Context, i int, spec *DeriveAppSpec) (DeriveResult, error) {
		app, err := compiled(apps, i, spec.application) // failures are self-naming *RequestErrors
		if err != nil {
			return DeriveResult{}, err
		}
		if route != nil {
			if row, ok := route(ctx, spec, i, app); ok {
				// A replica's error row is that app's derivation failure:
				// the gateway already ran the validation the replica
				// repeats, so nothing else can come back.
				if row.Error != "" {
					return DeriveResult{}, errors.New(row.Error)
				}
				return *row.Result, nil
			}
		}
		d, err := app.DeriveContext(ctx)
		if err != nil {
			return DeriveResult{}, err
		}
		return deriveResult(d), nil
	}
}

// deriveResult flattens one derived application into its wire row (shared
// by the derive and calibrate row functions).
func deriveResult(d *core.Derived) DeriveResult {
	row := d.TimingRow()
	return DeriveResult{
		Name:         row.Name,
		XiTT:         row.XiTT,
		XiET:         row.XiET,
		XiM:          row.XiM,
		Kp:           row.Kp,
		XiPrimeM:     row.XiPrimeM,
		NonMonotonic: d.Curve.IsNonMonotonic(),
		Model: ModelSpec{
			Kind: "non-monotonic",
			XiTT: row.XiTT,
			Kp:   row.Kp,
			XiM:  row.XiM,
			XiET: row.XiET,
		},
	}
}
