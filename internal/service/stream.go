package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cpsdyn/internal/obs"
)

// Line is one decoded NDJSON input line. Exactly one of Val and Err is set:
// a malformed line is reported as an error Line (Err unwraps to a
// *RequestError) so the consumer can emit a per-line error row and keep
// streaming instead of aborting the whole request.
type Line[T any] struct {
	Index int // 0-based position among the non-blank input lines
	Val   *T
	Err   error
}

// DecodeLines decodes an NDJSON stream into an iterator of Lines: one JSON
// value of type T per input line, unknown fields rejected, blank lines
// skipped. maxLine bounds one line's byte length (≤ 0 selects 8 MiB).
//
// Per-line decode failures never stop the iteration — they surface as error
// Lines. Only a reader failure (or a line exceeding maxLine, which makes
// resynchronisation impossible) ends the stream early, as a final error
// Line. This is the request half of the streaming codec shared by
// POST /v1/derive/stream, slotalloc -stream and cpsrepro derive -stream.
func DecodeLines[T any](r io.Reader, maxLine int64) iter.Seq[Line[T]] {
	return decodeLines[T](r, maxLine, nil)
}

// decodeLines is DecodeLines with per-line decode timing attributed to the
// trace's decode stage. Only the decodeStrict call is timed — the scanner
// read blocks on the network (for a gateway sub-stream, on the gateway's
// own pace), which is idle time, not decoding.
func decodeLines[T any](r io.Reader, maxLine int64, tr *obs.Trace) iter.Seq[Line[T]] {
	if maxLine <= 0 {
		maxLine = 8 << 20
	}
	return func(yield func(Line[T]) bool) {
		sc := bufio.NewScanner(r)
		// The scanner's cap is max(limit, cap(buf)) — the initial buffer
		// must not exceed the line limit or small limits are ignored.
		initial := int64(64 << 10)
		if initial > maxLine {
			initial = maxLine
		}
		sc.Buffer(make([]byte, 0, initial), int(maxLine))
		i := 0
		for sc.Scan() {
			raw := bytes.TrimSpace(sc.Bytes())
			if len(raw) == 0 {
				continue
			}
			ln := Line[T]{Index: i}
			v := new(T)
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			if err := decodeStrict(raw, v); err != nil {
				ln.Err = &RequestError{Err: err}
			} else {
				ln.Val = v
			}
			if tr != nil {
				tr.StageSince(obs.StageDecode, t0)
			}
			i++
			if !yield(ln) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			yield(Line[T]{Index: i, Err: &RequestError{
				Err: fmt.Errorf("reading stream: %w", err)}})
		}
	}
}

// DecodeRequests is the /v1/derive/stream request decoder: one DeriveAppSpec
// per NDJSON line.
func DecodeRequests(r io.Reader, maxLine int64) iter.Seq[Line[DeriveAppSpec]] {
	return DecodeLines[DeriveAppSpec](r, maxLine)
}

// EncodeResult writes one NDJSON result row: the compact JSON encoding of v
// followed by a newline. It is the response half of the streaming codec;
// callers that need the row on the wire immediately (the HTTP handler)
// flush after each call.
func EncodeResult(w io.Writer, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding result row: %w", err)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("writing result row: %w", err)
	}
	return nil
}

// StreamRow is one NDJSON line of a /v1/derive/stream response. Index is the
// 0-based input line the row answers; rows are emitted in input order.
// Exactly one of Result and Error is set — an Error row reports that line's
// failure (malformed JSON, validation, derivation) without aborting the
// stream. A terminal row with Index −1 reports the stream itself dying
// (budget expiry); a client that never sees its last index and no terminal
// row was disconnected mid-flight. Cancelled marks an error row whose
// derivation was cut short by the stream's own death (budget expiry,
// disconnect) rather than failing on its merits — a structured marker so a
// gateway can re-derive exactly those rows without parsing error text the
// client may have influenced.
type StreamRow struct {
	Index     int           `json:"index"`
	Result    *DeriveResult `json:"result,omitempty"`
	Error     string        `json:"error,omitempty"`
	Cancelled bool          `json:"cancelled,omitempty"`
}

// StreamStats counts one stream's traffic for the service gauges.
type StreamStats struct {
	RowsIn  int // non-blank request lines consumed
	RowsOut int // response rows written
}

// StreamOptions tunes a streaming derivation or allocation run.
type StreamOptions struct {
	// Workers bounds the per-stream derivation pool (≤ 0 = GOMAXPROCS).
	Workers int
	// Window bounds how many rows may be in flight (derived out of order,
	// waiting for in-order emission) — the peak response-side buffering,
	// independent of stream length. ≤ 0 selects 2 × workers.
	Window int
	// MaxLine bounds one request line's byte length (≤ 0 = 8 MiB).
	MaxLine int64
}

func (o StreamOptions) window(workers int) int {
	w := o.Window
	if w <= 0 {
		w = 2 * workers
	}
	if w < workers {
		// conc.StreamOrdered raises any smaller window to the worker count;
		// resolving the clamp here keeps /statsz introspection honest about
		// the window streams actually run with.
		w = workers
	}
	return w
}

// effectiveWorkers resolves a worker bound the way the pools do.
func effectiveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// flushWriter pushes every written row onto the wire immediately, so the
// client sees result rows as derivations complete instead of when the
// stream ends.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newFlushWriter(w http.ResponseWriter) *flushWriter {
	f, _ := w.(http.Flusher)
	return &flushWriter{w: w, f: f}
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if err == nil && fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// streamEngine is one NDJSON pipeline: request lines from r, result rows to
// w in input order, under opts. Every operation's stream (runStream over
// its row function) fits it, so the HTTP machinery around them lives once,
// in Server.stream.
type streamEngine func(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error)

// stream wraps an engine as a streaming HTTP handler: NDJSON request lines
// in, NDJSON result rows out in input order, one row flushed per
// computation, with memory O(workers + window) rather than O(batch). A
// ?workers=N query bounds the per-stream pool below the operator's ceiling,
// exactly like the buffered endpoints' workers field.
//
// The stream holds one in-flight slot for its whole life (its internal
// fan-out is bounded by workers) and runs under the usual compute budget;
// an expiry or client disconnect cancels the computations mid-stream. Since
// the 200 status is on the wire before the first row, failures past that
// point are reported in-band: per-row error rows, plus a terminal Index −1
// row when the budget kills the stream.
func (s *Server) stream(op string, lat *obs.Histogram, engine streamEngine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		workers := s.cfg.Workers
		if q := r.URL.Query().Get("workers"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("invalid workers value %q", q))
				return
			}
			workers = s.workers(n)
		}
		s.admit(w, r, op, lat, start, func(ctx context.Context, tr *obs.Trace) {
			defer func() {
				s.release()
				s.streams.Add(1)
			}()
			// HTTP/1 servers close the request body on the first response
			// write by default; this handler's whole point is interleaving
			// body reads with row writes. (HTTP/2 is full-duplex anyway and
			// may report an error.)
			rc := http.NewResponseController(w)
			_ = rc.EnableFullDuplex()
			// The engine only returns once nothing touches the body any
			// more, so a cancellation must also fail any read the decoder is
			// blocked in — otherwise a stalled-but-connected client would pin
			// the stream past its budget.
			stopKick := context.AfterFunc(ctx, func() { _ = rc.SetReadDeadline(time.Now()) })
			defer stopKick()
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			fw := newFlushWriter(w)
			stats, err := engine(ctx, r.Body, fw, StreamOptions{
				Workers: workers,
				Window:  s.cfg.StreamWindow,
				MaxLine: s.cfg.MaxBodyBytes,
			})
			tr.AddRows(stats.RowsOut)
			s.rowsIn.Add(uint64(stats.RowsIn))
			s.rowsOut.Add(uint64(stats.RowsOut))
			if err == nil {
				return
			}
			s.streamCancelled.Add(1)
			if isCancellation(err) {
				s.cancelled.Add(1)
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					s.timedOut.Add(1)
					// A disconnected client cannot be told anything; a budget
					// kill still can, in-band.
					_ = EncodeResult(fw, StreamRow{Index: -1,
						Error: fmt.Sprintf("stream exceeded the %s compute budget", s.cfg.Timeout)})
				}
			}
		})
	}
}

// RequestError is the typed error of the request codec: every decode or
// validation failure of a derive/allocate payload — buffered or streamed —
// unwraps to one, so hardened callers (and the fuzz harness) can tell
// malformed input apart from infrastructure failures.
type RequestError struct {
	App string // offending app name, when known
	Err error
}

// Error implements error. The app prefix is added unless the message
// already carries the quoted name (core's validation errors do), so short
// names matching an incidental substring don't lose their attribution.
func (e *RequestError) Error() string {
	if e.App != "" && !strings.Contains(e.Err.Error(), strconv.Quote(e.App)) {
		return fmt.Sprintf("app %q: %v", e.App, e.Err)
	}
	return e.Err.Error()
}

// Unwrap exposes the underlying cause.
func (e *RequestError) Unwrap() error { return e.Err }
