package service

import (
	"context"
	"errors"
	"fmt"
	"io"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/core"
)

// CalibrateAppSpec describes one application for measured-mode calibration:
// the plant and timing as in a derive request, plus the pure-mode response
// targets the controller designs are searched against. EtOmega > 0 selects
// a lightly-damped complex ET pole pair at that natural frequency (rad/s) —
// the knob the case study uses for oscillatory plants. Times are in
// seconds.
type CalibrateAppSpec struct {
	Name       string    `json:"name"`
	Plant      PlantSpec `json:"plant"`
	H          float64   `json:"h"`
	DelayTT    float64   `json:"delayTT"`
	DelayET    float64   `json:"delayET"`
	Eth        float64   `json:"eth"`
	X0         []float64 `json:"x0"`
	R          float64   `json:"r"`
	Deadline   float64   `json:"deadline"`
	FrameID    int       `json:"frameID,omitempty"`
	TargetXiTT float64   `json:"targetXiTT"`
	TargetXiET float64   `json:"targetXiET"`
	EtOmega    float64   `json:"etOmega,omitempty"`
}

// CalibrateRequest is the POST /v1/calibrate body: applications to
// calibrate against response-time targets and an optional worker-pool
// bound (≤ 0 selects the server's configured pool).
type CalibrateRequest struct {
	Workers int                `json:"workers,omitempty"`
	Apps    []CalibrateAppSpec `json:"apps"`
}

// PoleSpec is one calibrated closed-loop pole in JSON form.
type PoleSpec struct {
	Re float64 `json:"re"`
	Im float64 `json:"im,omitempty"`
}

// CalibrateResult is one application's calibration outcome: the calibrated
// pole-placement designs plus the same Table-I-style derive row a
// /v1/derive response carries, so the response both documents the
// controllers and pastes directly into POST /v1/allocate.
type CalibrateResult struct {
	DeriveResult
	PolesTT []PoleSpec `json:"polesTT"`
	PolesET []PoleSpec `json:"polesET"`
}

// CalibrateResponse is the POST /v1/calibrate reply.
type CalibrateResponse struct {
	Apps  []CalibrateResult `json:"apps"`
	Cache core.CacheStats   `json:"cache"`
}

// application compiles the calibration spec into a core.Application with
// unset poles (calibrateRow's search fills them); i is the app's position,
// used for the default frame ID.
func (s *CalibrateAppSpec) application(i int) (*core.Application, error) {
	if !isFinite(s.TargetXiTT) || !isFinite(s.TargetXiET) ||
		s.TargetXiTT <= 0 || s.TargetXiET <= s.TargetXiTT {
		return nil, &RequestError{App: s.Name,
			Err: fmt.Errorf("need 0 < targetXiTT (%g) < targetXiET (%g)", s.TargetXiTT, s.TargetXiET)}
	}
	if !isFinite(s.EtOmega) {
		return nil, &RequestError{App: s.Name,
			Err: fmt.Errorf("field etOmega = %g is not finite", s.EtOmega)}
	}
	d := DeriveAppSpec{
		Name:     s.Name,
		Plant:    s.Plant,
		H:        s.H,
		DelayTT:  s.DelayTT,
		DelayET:  s.DelayET,
		Eth:      s.Eth,
		X0:       s.X0,
		R:        s.R,
		Deadline: s.Deadline,
		FrameID:  s.FrameID,
	}
	return d.application(i)
}

func poleSpecs(ps []complex128) []PoleSpec {
	out := make([]PoleSpec, len(ps))
	for i, p := range ps {
		out[i] = PoleSpec{Re: real(p), Im: imag(p)}
	}
	return out
}

// applications compiles every spec of the request, rejecting an empty
// request and duplicate app names exactly like DeriveRequest.applications:
// a calibrate response pastes directly into POST /v1/allocate, which keys
// its apps by name. Every failure is a *RequestError.
func (req *CalibrateRequest) applications() ([]*core.Application, error) {
	return compileApps(req.Apps, (*CalibrateAppSpec).name, (*CalibrateAppSpec).application)
}

func (s *CalibrateAppSpec) name() string { return s.Name }

// calibrate runs the full measured-mode workflow for a fleet across a
// bounded worker pool: each app's controller designs are searched against
// its response targets, then the calibrated app is derived on the shared
// memo cache. A failed search outranks a failed derivation: when any search
// fails, only the searches' failures are reported, each prefixed with its
// app name. A ctx expiry aborts the in-flight work promptly.
func calibrate(ctx context.Context, req *CalibrateRequest) (*CalibrateResponse, error) {
	apps, err := req.applications()
	if err != nil {
		return nil, err
	}
	rows, errs, err := collect(ctx, req.Workers, req.Apps, calibrateRow(apps))
	if err != nil {
		return nil, err
	}
	var searches []error
	for _, err := range errs {
		var se *searchError
		if errors.As(err, &se) {
			searches = append(searches, fmt.Errorf("app %q: %w", se.app, se.err))
		}
	}
	if len(searches) == 0 {
		searches = errs
	}
	if err := errors.Join(searches...); err != nil {
		return nil, err
	}
	return &CalibrateResponse{Apps: rows, Cache: core.DeriveCacheStats()}, nil
}

// searchError is a row's failed controller-design search, as opposed to a
// failed derivation of the calibrated app. A stream row reports it as is.
type searchError struct {
	app string
	err error
}

func (e *searchError) Error() string { return e.err.Error() }
func (e *searchError) Unwrap() error { return e.err }

// CalibrateStreamRow is one NDJSON line of a /v1/calibrate/stream response:
// the calibration outcome for the app on input line Index, in the same shape
// a buffered /v1/calibrate reports per app. Exactly one of Result and Error
// is set.
type CalibrateStreamRow struct {
	Index  int              `json:"index"`
	Result *CalibrateResult `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// calibrateStream is the streaming derivation's measured-mode sibling:
// NDJSON CalibrateAppSpec lines in, NDJSON CalibrateStreamRows out in input
// order. Per-line failures (malformed JSON, duplicate or invalid specs,
// searches that do not converge) become error rows and never abort the
// stream; a ctx expiry stops it mid-flight like the other engines.
func calibrateStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	return runStream(ctx, r, w, opts, (*CalibrateAppSpec).name, calibrateRow(nil),
		func(res result[CalibrateResult]) CalibrateStreamRow {
			if res.err != nil {
				return CalibrateStreamRow{Index: res.index, Error: res.err.Error()}
			}
			return CalibrateStreamRow{Index: res.index, Result: &res.val}
		})
}

// calibrateRow is the calibrate operation's one row function: search the
// compiled app's controller designs against its targets, then derive it.
func calibrateRow(apps []*core.Application) rowFunc[CalibrateAppSpec, CalibrateResult] {
	return func(ctx context.Context, i int, spec *CalibrateAppSpec) (CalibrateResult, error) {
		app, err := compiled(apps, i, spec.application)
		if err != nil {
			return CalibrateResult{}, err
		}
		if err := casestudy.Calibrate(ctx, app, spec.TargetXiTT, spec.TargetXiET, spec.EtOmega); err != nil {
			return CalibrateResult{}, &searchError{app: spec.Name, err: err}
		}
		d, err := app.DeriveContext(ctx)
		if err != nil {
			return CalibrateResult{}, err
		}
		return CalibrateResult{
			DeriveResult: deriveResult(d),
			PolesTT:      poleSpecs(app.PolesTT),
			PolesET:      poleSpecs(app.PolesET),
		}, nil
	}
}

func calibrateEndpoint(ctx context.Context, s *Server, body []byte) (any, error) {
	var req CalibrateRequest
	if err := decodeTraced(ctx, body, &req); err != nil {
		return nil, err
	}
	req.Workers = s.workers(req.Workers)
	return calibrate(ctx, &req)
}
