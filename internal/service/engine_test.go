package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// rawRow is one NDJSON response row of any operation with its answer kept
// as the raw bytes the server wrote.
type rawRow struct {
	Index  int             `json:"index"`
	Result json.RawMessage `json:"result"`
	Fleet  json.RawMessage `json:"fleet"`
	Error  string          `json:"error"`
}

// streamRawRows posts body to an NDJSON endpoint and decodes every
// response row, keeping the answers' wire bytes.
func streamRawRows(t *testing.T, url string, body io.Reader) []rawRow {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status = %d: %s", resp.StatusCode, b)
	}
	var rows []rawRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var row rawRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad response row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// compactAll compacts every raw value, so an indented buffered response
// compares byte for byte against compact stream rows.
func compactAll(t *testing.T, raws []json.RawMessage) [][]byte {
	t.Helper()
	out := make([][]byte, len(raws))
	for i, raw := range raws {
		var c bytes.Buffer
		if err := json.Compact(&c, raw); err != nil {
			t.Fatal(err)
		}
		out[i] = c.Bytes()
	}
	return out
}

// The allocate twin of TestStreamGoldenMatchesBuffered: the Table I fleet
// under three policies plus an infeasible fleet, batched through
// /v1/allocate and streamed through /v1/allocate/stream, answers
// byte-identical fleets at any worker count.
func TestAllocateStreamGoldenMatchesBuffered(t *testing.T) {
	ts := newTestServer(t, Config{})
	conservative := strings.ReplaceAll(tableIJSON, `"kind":"non-monotonic"`, `"kind":"conservative"`)
	raced := strings.ReplaceAll(tableIJSON, `"policy": "first-fit"`, `"policy": "race"`)
	doomed := `{"name":"doomed","apps":[{"name":"a","r":10,"deadline":0.1,
		"model":{"kind":"non-monotonic","xiTT":1,"kp":2,"xiM":3,"xiET":5}}]}`
	fleets := []string{
		strings.Replace(tableIJSON, "{", `{"name":"nonmono",`, 1),
		strings.Replace(conservative, "{", `{"name":"cons",`, 1),
		strings.Replace(raced, "{", `{"name":"raced",`, 1),
		doomed,
	}
	code, out := postJSON(t, ts.URL+"/v1/allocate",
		json.RawMessage(fmt.Sprintf(`{"fleets":[%s]}`, strings.Join(fleets, ","))))
	if code != http.StatusOK {
		t.Fatalf("buffered allocate status = %d: %s", code, out)
	}
	var buffered struct {
		Fleets []json.RawMessage `json:"fleets"`
	}
	if err := json.Unmarshal(out, &buffered); err != nil {
		t.Fatal(err)
	}
	want := compactAll(t, buffered.Fleets)
	if len(want) != len(fleets) {
		t.Fatalf("buffered returned %d fleets, want %d", len(want), len(fleets))
	}
	for _, workers := range []int{1, 3} {
		var body bytes.Buffer
		for _, f := range fleets {
			var c bytes.Buffer
			if err := json.Compact(&c, []byte(f)); err != nil {
				t.Fatal(err)
			}
			body.Write(append(c.Bytes(), '\n'))
		}
		rows := streamRawRows(t, fmt.Sprintf("%s/v1/allocate/stream?workers=%d", ts.URL, workers), &body)
		if len(rows) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), len(want))
		}
		for i, row := range rows {
			if row.Index != i || row.Error != "" || !bytes.Equal(row.Fleet, want[i]) {
				t.Fatalf("workers=%d: row %d differs from buffered:\n stream   %+v (fleet %s)\n buffered %s",
					workers, i, row, row.Fleet, want[i])
			}
		}
	}
}

// probeCalibrateSpec is the CI probe plant with response targets.
func probeCalibrateSpec(name string) CalibrateAppSpec {
	return CalibrateAppSpec{
		Name:       name,
		Plant:      PlantSpec{A: [][]float64{{0, 1}, {-2, -3}}, B: [][]float64{{0}, {1}}},
		H:          0.02,
		DelayTT:    0.002,
		DelayET:    0.02,
		Eth:        0.1,
		X0:         []float64{0, 2},
		R:          8,
		Deadline:   3,
		TargetXiTT: 0.7,
		TargetXiET: 2.0,
	}
}

// The calibrate twin of TestStreamGoldenMatchesBuffered: one probe-plant
// app calibrated through /v1/calibrate and /v1/calibrate/stream answers
// byte-identical rows, poles included, at any worker count.
func TestCalibrateStreamGoldenMatchesBuffered(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping calibration search in -short mode")
	}
	ts := newTestServer(t, Config{})
	spec := probeCalibrateSpec("probe")
	code, out := postJSON(t, ts.URL+"/v1/calibrate", &CalibrateRequest{Apps: []CalibrateAppSpec{spec}})
	if code != http.StatusOK {
		t.Fatalf("buffered calibrate status = %d: %s", code, out)
	}
	var buffered struct {
		Apps []json.RawMessage `json:"apps"`
	}
	if err := json.Unmarshal(out, &buffered); err != nil {
		t.Fatal(err)
	}
	want := compactAll(t, buffered.Apps)
	if len(want) != 1 {
		t.Fatalf("buffered returned %d apps, want 1", len(want))
	}
	for _, workers := range []int{1, 3} {
		var body bytes.Buffer
		if err := EncodeResult(&body, spec); err != nil {
			t.Fatal(err)
		}
		rows := streamRawRows(t, fmt.Sprintf("%s/v1/calibrate/stream?workers=%d", ts.URL, workers), &body)
		if len(rows) != 1 || rows[0].Index != 0 || rows[0].Error != "" || !bytes.Equal(rows[0].Result, want[0]) {
			t.Fatalf("workers=%d: rows %+v differ from buffered:\n buffered %s", workers, rows, want[0])
		}
	}
}

// Calibration rejects duplicate app names in both framings, like derive:
// its response pastes directly into /v1/allocate, which rejects them. An
// empty request is a typed *RequestError like every codec failure.
func TestCalibrateRejectsDuplicateNames(t *testing.T) {
	ts := newTestServer(t, Config{})
	dup := &CalibrateRequest{Apps: []CalibrateAppSpec{probeCalibrateSpec("probe"), probeCalibrateSpec("probe")}}
	code, out := postJSON(t, ts.URL+"/v1/calibrate", dup)
	if code != http.StatusBadRequest || !strings.Contains(string(out), "duplicate app name") {
		t.Fatalf("status = %d (%s), want 400 duplicate app name", code, out)
	}
	var reqErr *RequestError
	if _, err := dup.applications(); !errors.As(err, &reqErr) {
		t.Fatalf("duplicate names returned %v, want a *RequestError", err)
	}
	if _, err := calibrate(context.Background(), &CalibrateRequest{}); !errors.As(err, &reqErr) {
		t.Fatalf("empty request returned %v, want a *RequestError", err)
	}

	// On a stream a line that decodes claims its name even when it then
	// fails validation, exactly like /v1/derive/stream.
	var body bytes.Buffer
	body.WriteString(`{"name":"probe","targetXiTT":-1}` + "\n")
	if err := EncodeResult(&body, probeCalibrateSpec("probe")); err != nil {
		t.Fatal(err)
	}
	rows := streamRawRows(t, ts.URL+"/v1/calibrate/stream", &body)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if !strings.Contains(rows[0].Error, "targetXiTT") {
		t.Fatalf("row 0 = %+v, want a target-validation error row", rows[0])
	}
	if rows[1].Index != 1 || rows[1].Result != nil || !strings.Contains(rows[1].Error, "duplicate app name") {
		t.Fatalf("row 1 = %+v, want a duplicate-name error row", rows[1])
	}
}

// A panicking row fails only itself, with an *internalError the buffered
// endpoints answer 500 for; the other rows still answer.
func TestRowPanicIsInternalError(t *testing.T) {
	vals, errs, err := collect(context.Background(), 2, []int{1, 2, 3},
		func(_ context.Context, i int, v *int) (int, error) {
			if i == 1 {
				panic("boom")
			}
			return 10 * *v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var ie *internalError
	if !errors.As(errors.Join(errs...), &ie) || !strings.Contains(ie.Error(), "internal error: boom") {
		t.Fatalf("row errors = %v, want an internal error for the panic", errs)
	}
	if vals[0] != 10 || vals[2] != 30 || errs[0] != nil || errs[2] != nil {
		t.Fatalf("rows = %v / %v, want the healthy rows answered", vals, errs)
	}
}

// An expired context is the collector's only error: per-row failures are
// not reported next to it.
func TestCollectReturnsContextErrorAlone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := collect(ctx, 1, []int{1, 2}, func(ctx context.Context, _ int, _ *int) (int, error) {
		return 0, errors.New("row failed")
	})
	if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "row failed") {
		t.Fatalf("err = %v, want context.Canceled alone", err)
	}
}
