package core

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/pwl"
	"cpsdyn/internal/store"
)

// probeApp is the CI probe plant [[0,1],[-2,-3]] with the dominant TT pole
// p — the placed-pole key family the gateway benchmark keeps warm.
func probeApp(name string, p float64) *Application {
	return &Application{
		Name:  name,
		Plant: &lti.Continuous{Name: "probe", A: mat.FromRows([][]float64{{0, 1}, {-2, -3}}), B: mat.ColVec(0, 1)},
		H:     0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1,
		X0: []float64{0, 2}, R: 8, Deadline: 3, FrameID: 1,
		PolesTT: []complex128{complex(p, 0), 0.7, 0.05},
		PolesET: []complex128{0.93, 0.88, 0.1},
	}
}

// lqrApp is an internal/plants model under the default LQR design with the
// case study's disturbance scaled by scale.
func lqrApp(name, id string, scale float64) *Application {
	eth := 0.1
	x0 := []float64{0, 2.0 * scale}
	switch id {
	case "lane":
		x0[1] = 1.5 * scale
	case "suspension":
		x0[1], eth = 0.8*scale, 0.05
	}
	return &Application{
		Name: name, Plant: plants.All()[id],
		H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: eth,
		X0: x0, R: 10, Deadline: 5, FrameID: 1,
	}
}

// derivedBits renders every computed field of d bit-exactly, reusing the
// cache-key float encoding: two derivations agree byte for byte exactly
// when their renderings are equal. The fields that carry the app's own
// identity — App, Sys.Name and the timing row's name, r and deadline — are
// left out and checked by ownFields instead.
func derivedBits(d *Derived) string {
	var b []byte
	for _, disc := range []*lti.Discrete{d.DiscTT, d.DiscET} {
		b = append(b, disc.Name...)
		for _, m := range []*mat.Matrix{disc.Phi, disc.Gamma0, disc.Gamma1, disc.C} {
			b = keyMatrix(b, m)
		}
		b = keyFloat(keyFloat(b, disc.H), disc.D)
	}
	for _, m := range []*mat.Matrix{d.KTT, d.KET, d.Sys.A1, d.Sys.A2} {
		b = keyMatrix(b, m)
	}
	b = keyVec(b, d.Sys.X0)
	b = keyFloat(keyFloat(b, d.Sys.Eth), d.Sys.H)
	b = strconv.AppendInt(b, int64(d.Sys.NormDims), 10)
	points := func(ps []pwl.Point) {
		for _, p := range ps {
			b = keyFloat(keyFloat(b, p.Wait), p.Dwell)
		}
		b = append(b, '|')
	}
	points(d.Curve.Samples)
	b = keyFloat(keyFloat(keyFloat(b, d.Curve.XiTT), d.Curve.XiET), d.Curve.H)
	for _, m := range []*pwl.Model{d.NonMono, d.Conservative, d.Simple} {
		b = append(b, m.Kind...)
		points(m.Points)
	}
	row := d.TimingRow()
	for _, v := range []float64{row.XiTT, row.XiET, row.XiM, row.Kp, row.XiPrimeM} {
		b = keyFloat(b, v)
	}
	return string(b)
}

// ownFields reports whether d carries a's identity: its App, a system
// named after it, and a timing row with its name, r and deadline.
func ownFields(d *Derived, a *Application) bool {
	row := d.TimingRow()
	return d.App == a && d.Sys.Name == a.Name && row.Name == a.Name &&
		floatEqualBits(row.R, a.R) && floatEqualBits(row.Deadline, a.Deadline)
}

// TestCacheKeyGolden pins the exact bytes of every key the derivation
// cache and the disk store address records by (sha256 of the key): the
// servo case-study app and a probe app whose X0 carries a −0. The golden
// file predates the fmt-free formatting, so records the store wrote before
// it stay addressable.
func TestCacheKeyGolden(t *testing.T) {
	f, err := os.Open("testdata/cachekeys.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	var cur string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<16)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "# "); ok {
			cur = name
			continue
		}
		want[cur] = append(want[cur], sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	probe := probeApp("probe", 0.8)
	probe.X0[0] = math.Copysign(0, -1)
	for _, a := range []*Application{servoApp("servo", 1, 3), probe} {
		d, err := a.Derive()
		if err != nil {
			t.Fatal(err)
		}
		got := []string{
			a.CacheKey(),
			discKey(a.Plant, a.H, a.DelayTT),
			discKey(a.Plant, a.H, a.DelayET),
			curveKey(d.Sys, 0),
		}
		if len(want[a.Name]) != len(got) {
			t.Fatalf("%s: golden has %d keys, want %d", a.Name, len(want[a.Name]), len(got))
		}
		for i := range got {
			if got[i] != want[a.Name][i] {
				t.Errorf("%s key %d:\n got %s\nwant %s", a.Name, i, got[i], want[a.Name][i])
			}
		}
	}
}

// memoCorpus is the differential corpus: the 20 probe poles 0.70–0.89, the
// six internal/plants models under LQR at three disturbance scales, and the
// servo case study. twin marks the keys whose ±0 twin is checked too: the
// case study, every fifth probe pole and each plant's unscaled disturbance
// (a twin is one more cold sampling). -short keeps every fourth probe pole
// and one scale.
func memoCorpus() (apps []*Application, twin []bool) {
	for i := 0; i < 20; i++ {
		if testing.Short() && i%4 != 0 {
			continue
		}
		apps = append(apps, probeApp(fmt.Sprintf("probe-%d", i), float64(70+i)/100))
		twin = append(twin, i%5 == 0)
	}
	scales := []float64{1, 0.9, 1.1}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, id := range []string{"servo", "dcmotor", "cruise", "suspension", "lane", "throttle"} {
		for i, s := range scales {
			apps = append(apps, lqrApp(fmt.Sprintf("%s-%g", id, s), id, s))
			twin = append(twin, i == 0)
		}
	}
	return append(apps, servoApp("servo", 1, 3)), append(twin, true)
}

// signFlipped returns a copy of a whose X0[0] (zero in every corpus app)
// carries the other sign of zero: invisible to ==, a distinct CacheKey.
func signFlipped(a *Application) *Application {
	c := a.CloneShallow()
	c.X0 = append([]float64(nil), a.X0...)
	c.X0[0] = math.Copysign(0, -math.Copysign(1, a.X0[0]))
	return c
}

// The differential pin of the tentpole: for every corpus key, a row served
// by the derive-by-key memo — a freshly built Application, possibly under
// another name, frame ID, r or deadline, which the pointer memo cannot
// match — equals the row derived from an empty cache, memo and store, byte
// for byte, and carries its own app's identity. A ±0 twin (X0[0] = −0) is
// a distinct memo entry with its own equally exact rows.
func TestDeriveMemoMatchesColdDerivation(t *testing.T) {
	SetDeriveStore(nil)
	t.Cleanup(ResetDeriveCache)
	corpus, twin := memoCorpus()
	for k, base := range corpus {
		apps := []*Application{base}
		if twin[k] {
			apps = append(apps, signFlipped(base))
		}
		for _, app := range apps {
			ResetDeriveCache()
			d, err := app.CloneShallow().Derive()
			if err != nil {
				t.Fatal(err)
			}
			if st := DeriveMemoStats(); st.Misses != 1 || st.Hits != 0 {
				t.Fatalf("%s: reference derivation was not cold: memo %+v", app.Name, st)
			}
			want := derivedBits(d)
			variants := []*Application{app.CloneShallow(), app.CloneShallow(), app.CloneShallow(), app.CloneShallow()}
			variants[1].Name = app.Name + "-renamed"
			variants[2].FrameID = 7
			variants[3].R, variants[3].Deadline = 2*app.R, app.Deadline+0.5
			for i, v := range variants {
				before := DeriveMemoStats()
				d, err := v.Derive()
				if err != nil {
					t.Fatal(err)
				}
				if after := DeriveMemoStats(); after.Hits != before.Hits+1 {
					t.Fatalf("%s variant %d: memo stats %+v → %+v, want one hit", app.Name, i, before, after)
				}
				if !ownFields(d, v) {
					t.Fatalf("%s variant %d: memo-hit row does not carry its own app's identity", app.Name, i)
				}
				if got := derivedBits(d); got != want {
					t.Fatalf("%s variant %d: memo-hit row differs from the cold derivation:\n got %s\nwant %s",
						app.Name, i, got, want)
				}
			}
		}
		if !twin[k] {
			continue
		}
		// The ±0 twin is still memoised: re-deriving the base is a miss,
		// leaving two entries.
		if _, err := base.CloneShallow().Derive(); err != nil {
			t.Fatal(err)
		}
		if st := DeriveMemoStats(); st.Entries != 2 {
			t.Fatalf("%s: memo entries = %d after deriving it and its ±0 twin, want 2", base.Name, st.Entries)
		}
	}
}

// The memo never holds more entries than the cache's entry capacity, and
// follows it when the capacity is retuned.
func TestDeriveMemoBoundedByCacheCapacity(t *testing.T) {
	ResetDeriveCache()
	SetDeriveCacheCapacity(2, 0)
	t.Cleanup(func() {
		SetDeriveCacheCapacity(defaultDeriveCacheEntries, 0)
		ResetDeriveCache()
	})
	for i := 0; i < 5; i++ {
		app := servoApp("s", 1, 3)
		app.PolesTT = []complex128{complex(0.80-0.01*float64(i), 0), 0.70, 0.05}
		if _, err := app.Derive(); err != nil {
			t.Fatal(err)
		}
		if st := DeriveMemoStats(); st.Entries > 2 {
			t.Fatalf("after %d keys the memo holds %d entries, capacity 2", i+1, st.Entries)
		}
	}
	SetDeriveCacheCapacity(1, 0)
	if st := DeriveMemoStats(); st.Entries != 1 {
		t.Fatalf("memo entries = %d after shrinking the capacity to 1", st.Entries)
	}
}

// ResetDeriveCache means "recompute everything": it empties the memo too.
func TestResetDeriveCacheEmptiesMemo(t *testing.T) {
	ResetDeriveCache()
	t.Cleanup(ResetDeriveCache)
	if _, err := servoApp("A", 1, 3).Derive(); err != nil {
		t.Fatal(err)
	}
	if _, err := servoApp("B", 2, 3).Derive(); err != nil {
		t.Fatal(err)
	}
	if st := DeriveMemoStats(); st != (MemoStats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("memo stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	ResetDeriveCache()
	if st := DeriveMemoStats(); st != (MemoStats{}) {
		t.Fatalf("memo stats after reset = %+v, want zero", st)
	}
	if _, err := servoApp("C", 3, 3).Derive(); err != nil {
		t.Fatal(err)
	}
	if st, cs := DeriveMemoStats(), DeriveCacheStats(); st.Misses != 1 || st.Hits != 0 || cs.Misses != 3 {
		t.Fatalf("after reset: memo %+v, cache %+v, want a full recomputation", st, cs)
	}
}

// A memo hit re-fetches its artefacts through the counted cache, so one the
// LRU evicted is recomputed (a miss) or read from the disk store (a disk
// hit) — never pinned by the memo — and the row is byte-identical.
func TestDeriveMemoRefetchesEvictedArtefacts(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			ResetDeriveCache()
			SetDeriveCacheCapacity(6, 0)
			var st *store.Store
			if withStore {
				var err error
				if st, err = store.Open(t.TempDir(), store.Options{}); err != nil {
					t.Fatal(err)
				}
				SetDeriveStore(st)
			}
			t.Cleanup(func() {
				SetDeriveStore(nil)
				if st != nil {
					st.Close()
				}
				SetDeriveCacheCapacity(defaultDeriveCacheEntries, 0)
				ResetDeriveCache()
			})
			d, err := servoApp("A", 1, 3).Derive()
			if err != nil {
				t.Fatal(err)
			}
			want := derivedBits(d)
			// Two more keys (6 entries) push all three of A's artefacts out
			// of the LRU, while the memo (capacity 6) keeps A's entry.
			for i, h := range []float64{0.021, 0.022} {
				other := servoApp(fmt.Sprintf("o%d", i), 2, 3)
				other.H = h
				if _, err := other.Derive(); err != nil {
					t.Fatal(err)
				}
			}
			if st != nil {
				st.Flush()
			}
			before, memoBefore := DeriveCacheStats(), DeriveMemoStats()
			d, err = servoApp("A", 1, 3).Derive()
			if err != nil {
				t.Fatal(err)
			}
			after, memoAfter := DeriveCacheStats(), DeriveMemoStats()
			if memoAfter.Hits != memoBefore.Hits+1 {
				t.Fatalf("memo %+v → %+v, want a hit", memoBefore, memoAfter)
			}
			misses, disk := after.Misses-before.Misses, after.DiskHits-before.DiskHits
			if withStore && (misses != 0 || disk != 3) || !withStore && (misses != 3 || disk != 0) {
				t.Fatalf("re-fetch counted %d misses / %d disk hits (store %v), want the 3 evicted artefacts", misses, disk, withStore)
			}
			if got := derivedBits(d); got != want {
				t.Fatalf("row after eviction differs:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// Failures are never memoised: a design whose loop is unstable fails the
// same way on every attempt and leaves no memo entry behind.
func TestDeriveMemoSkipsFailures(t *testing.T) {
	ResetDeriveCache()
	t.Cleanup(ResetDeriveCache)
	for i := 0; i < 2; i++ {
		app := servoApp("bad", 1, 3)
		app.PolesTT = []complex128{1.5, 0.6, 0.05}
		if _, err := app.Derive(); err == nil {
			t.Fatal("unstable design derived")
		}
		if st := DeriveMemoStats(); st.Entries != 0 || st.Hits != 0 {
			t.Fatalf("attempt %d: memo stats = %+v, want no entry and no hit", i, st)
		}
	}
}

// Regression: the curve key excludes the app name but sampling errors name
// the system, and a failed computation is handed to every concurrent
// waiter — so two same-dynamics apps under different names, failing in one
// fleet, both reported whichever name computed first. Each must name
// itself, and a lone app's error text is unchanged.
func TestSharedSamplingErrorNamesEachApp(t *testing.T) {
	ResetDeriveCache()
	t.Cleanup(ResetDeriveCache)
	slow := func(name string) *Application {
		app := servoApp(name, 1, 3)
		app.PolesET = []complex128{0.99999, 0.88, 0.10} // settles after ~10⁵ steps
		return app
	}
	const lone = "switching: solo: ET loop did not settle within 20000 steps"
	if _, err := slow("solo").Derive(); err == nil || err.Error() != lone {
		t.Fatalf("lone app error = %v, want %q", err, lone)
	}
	for round := 0; round < 20; round++ {
		apps := []*Application{slow("alpha"), slow("beta")}
		apps[1].FrameID = 2
		_, err := DeriveFleet(context.Background(), apps, FleetOptions{Workers: 2})
		if err == nil {
			t.Fatal("non-settling fleet derived")
		}
		lines := strings.Split(err.Error(), "\n")
		want := []string{
			"switching: alpha: ET loop did not settle within 20000 steps",
			"switching: beta: ET loop did not settle within 20000 steps",
		}
		if len(lines) != 2 || lines[0] != want[0] || lines[1] != want[1] {
			t.Fatalf("round %d: fleet error rows %q, want %q", round, lines, want)
		}
	}
}
