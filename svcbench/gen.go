package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/service"
)

// This file generates every input the service sees. All of it is a pure
// function of the seed: the same seed gives the same keys, the same request
// bodies and the same request order, so two runs of one seed differ only in
// timing.

// Draws along one axis are frac(offset + k·invPhi) with a seeded offset
// rather than independent uniforms: every seed then covers the range
// evenly, so the cost mix of a run (the probe plant's sampling cost varies
// 3× across its pole range) does not swing from seed to seed, while the
// keys themselves still change with the seed and never repeat within a
// run. Two-axis draws use the R2 sequence's steps instead, whose points
// fill the square rather than lie on one line.
const (
	invPhi = 0.6180339887498949 // 1/φ
	r2x    = 0.7548776662466927 // 1/ρ, ρ the plastic number
	r2y    = 0.5698402909980532 // 1/ρ²
)

func frac(x float64) float64 {
	_, f := math.Modf(x)
	return f
}

func lowDisc(offset float64, k int) float64 { return frac(offset + float64(k)*invPhi) }

// lqrPlant is one internal/plants model with the disturbance the case study
// gives it (internal/casestudy's fleet table).
type lqrPlant struct {
	id  string
	x0  []float64
	eth float64
}

var lqrPlants = []lqrPlant{
	{"lane", []float64{0, 1.5}, 0.1},
	{"dcmotor", []float64{0, 2.0}, 0.1},
	{"servo", []float64{0, 2.0}, 0.1},
	{"suspension", []float64{0, 0.8}, 0.05},
	{"cruise", []float64{0, 2.0}, 0.1},
	{"throttle", []float64{0, 2.0}, 0.1},
}

// key is one derivation cache key: a plant with its timing, disturbance and
// controller design. Two families exist: the CI probe plant
// [[0,1],[-2,-3]] with placed poles, whose TT-loop state collapses to a
// subnormal fixed point that the settle loop keeps stepping through, and
// the internal/plants models under the LQR default design, which settle in
// normal floats.
type key struct {
	probe  bool
	poleTT float64 // probe family: the dominant TT pole
	plant  int     // LQR family: index into lqrPlants
	scale  float64 // LQR family: factor applied to the plant's x0
}

func probeKey(p float64) key      { return key{probe: true, poleTT: p} }
func lqrKey(i int, s float64) key { return key{plant: i, scale: s} }

func matRows(m *mat.Matrix) [][]float64 {
	out := make([][]float64, m.Rows())
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// spec renders the key as a wire request app named name. The plant name is
// always set: the service defaults an omitted plant name from the app name,
// and the plant name is part of the cache key.
func (k key) spec(name string) service.DeriveAppSpec {
	if k.probe {
		return service.DeriveAppSpec{
			Name: name,
			Plant: service.PlantSpec{Name: "probe",
				A: [][]float64{{0, 1}, {-2, -3}}, B: [][]float64{{0}, {1}}},
			H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1,
			X0: []float64{0, 2}, R: 8, Deadline: 3,
			PolesTT: []float64{k.poleTT, 0.7, 0.05},
			PolesET: []float64{0.93, 0.88, 0.1},
		}
	}
	lp := lqrPlants[k.plant]
	pl := plants.All()[lp.id]
	x0 := make([]float64, len(lp.x0))
	for i, v := range lp.x0 {
		x0[i] = v * k.scale
	}
	return service.DeriveAppSpec{
		Name:  name,
		Plant: service.PlantSpec{Name: pl.Name, A: matRows(pl.A), B: matRows(pl.B)},
		H:     0.02, DelayTT: 0.002, DelayET: 0.02, Eth: lp.eth,
		X0: x0, R: 10, Deadline: 5,
	}
}

// appFromSpec compiles a wire spec into the core.Application the service
// would build from it (same defaults: plant name from the app name, frame
// ID from the position). The replay uses it to call core directly.
func appFromSpec(s *service.DeriveAppSpec, i int) *core.Application {
	mx := func(r [][]float64) *mat.Matrix {
		if len(r) == 0 {
			return nil
		}
		return mat.FromRows(r)
	}
	poles := func(ps []float64) []complex128 {
		if len(ps) == 0 {
			return nil
		}
		out := make([]complex128, len(ps))
		for j, p := range ps {
			out[j] = complex(p, 0)
		}
		return out
	}
	plantName := s.Plant.Name
	if plantName == "" {
		plantName = s.Name
	}
	frame := s.FrameID
	if frame == 0 {
		frame = i + 1
	}
	return &core.Application{
		Name:  s.Name,
		Plant: &lti.Continuous{Name: plantName, A: mx(s.Plant.A), B: mx(s.Plant.B), C: mx(s.Plant.C)},
		H:     s.H, DelayTT: s.DelayTT, DelayET: s.DelayET, Eth: s.Eth,
		X0: append([]float64(nil), s.X0...), R: s.R, Deadline: s.Deadline,
		FrameID: frame, PolesTT: poles(s.PolesTT), PolesET: poles(s.PolesET),
	}
}

func (k key) cacheKey() string {
	s := k.spec("k")
	return appFromSpec(&s, 0).CacheKey()
}

// seeded returns the generator for one purpose of one seed, so adding a
// draw for one purpose never shifts the draws of another.
func seeded(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose))
}

// coldKeys returns the two never-seen keys of cold-derive request k: one
// probe key with its TT pole in [0.70, 0.89] and one LQR key with x0 scaled
// by a factor in [0.9, 1.1], each family cycling evenly over its range. The
// LQR plants take turns in a fixed order: their sampling costs differ 20×,
// and a seeded order would make the plant mix of a short run a property of
// the seed.
func coldKeys(seed uint64, k int) [2]key {
	r := seeded(seed, 1)
	u0, v0 := r.Float64(), r.Float64()
	n := len(lqrPlants)
	return [2]key{
		probeKey(0.70 + 0.19*lowDisc(u0, k)),
		lqrKey(k%n, 0.9+0.2*lowDisc(v0, k/n)),
	}
}

// coldRequest is cold-derive request k: 6 apps over its 2 new keys, 3 apps
// per key, interleaved, as an NDJSON /v1/derive/stream body.
func coldRequest(seed uint64, k int) (specs []service.DeriveAppSpec, keys [2]key) {
	keys = coldKeys(seed, k)
	for j := 0; j < 6; j++ {
		specs = append(specs, keys[j%2].spec(fmt.Sprintf("c%d-%d", k, j)))
	}
	return specs, keys
}

func ndjson(specs []service.DeriveAppSpec) []byte {
	var out []byte
	for i := range specs {
		b, err := json.Marshal(&specs[i])
		if err != nil {
			panic(err) // a DeriveAppSpec of finite floats always encodes
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

// probePool is the 20 CI-shape probe keys: TT poles 0.70, 0.71, …, 0.89.
func probePool() []key {
	out := make([]key, 20)
	for i := range out {
		out[i] = probeKey(float64(70+i) / 100)
	}
	return out
}

// drawApps draws n apps uniformly from pool, named prefix-0 …
// prefix-(n-1), and returns the specs and the pool index of each.
func drawApps(r *rand.Rand, pool []key, n int, prefix string) ([]service.DeriveAppSpec, []int) {
	specs := make([]service.DeriveAppSpec, n)
	idx := make([]int, n)
	for j := range specs {
		idx[j] = r.IntN(len(pool))
		specs[j] = pool[idx[j]].spec(fmt.Sprintf("%s-%d", prefix, j))
	}
	return specs, idx
}
