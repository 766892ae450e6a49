package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzServiceCodec hammers the request/response codec — the buffered
// /v1/derive, /v1/allocate and /v1/calibrate decoders and the NDJSON
// streaming decoders —
// with arbitrary bytes. The contract under fuzzing: decode and compile may
// reject input, but every rejection is a typed *RequestError and nothing
// panics (mat.FromRows panics on ragged input, so the codec must catch
// shape and finiteness problems first). Derivation itself is not run — the
// codec is the attack surface; the numeric kernels only ever see validated
// applications.
func FuzzServiceCodec(f *testing.F) {
	// probe is the CI probe app as a calibration spec, its object left open
	// so seeds can append fields.
	const probe = `{"name":"probe","plant":{"a":[[0,1],[-2,-3]],"b":[[0],[1]]},"h":0.02,` +
		`"delayTT":0.002,"delayET":0.02,"eth":0.1,"x0":[0,2],"r":8,"deadline":3,` +
		`"targetXiTT":0.7,"targetXiET":2.0`
	// Seed corpus: the shipped example payloads in both framings…
	for _, name := range []string{"derive.json", "derive.ndjson", "allocate.json", "fleets.ndjson"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "payloads", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// …plus adversarial shapes: ragged/empty matrices, mismatched x0,
	// out-of-range numbers, duplicate names, NDJSON with broken lines.
	for _, s := range []string{
		`{"apps":[{"name":"a","plant":{"a":[[1,2],[3]],"b":[[1],[1]]},"h":0.02}]}`,
		`{"apps":[{"name":"a","plant":{"a":[[0,1],[-2,-3]],"b":[[0]]},"h":0.02,"x0":[0]}]}`,
		`{"apps":[{"name":"a"},{"name":"a"}]}`,
		`{"apps":[{"name":"a","plant":{"a":[[1e308]],"b":[[1e308]]},"h":1e-308,"x0":[1e999]}]}`,
		`{"fleets":[{"policy":"race","apps":[{"name":"a","r":1,"deadline":2,"model":{"kind":"simple"}}]}]}`,
		"{\"name\":\"a\"}\n{broken\n\n{\"name\":\"b\",\"plant\":{\"a\":[[1]],\"b\":[[1]]}}",
		// Calibration requests, in both framings: a valid probe app, a
		// duplicate name, targetXiET ≤ targetXiTT and a NaN etOmega (which
		// JSON cannot spell, so it must fail the decode).
		`{"apps":[` + probe + `}]}`,
		`{"apps":[` + probe + `},` + probe + `}]}`,
		`{"apps":[{"name":"probe","targetXiTT":2.0,"targetXiET":2.0}]}`,
		`{"apps":[` + probe + `,"etOmega":NaN}]}`,
		probe + "}\n" + probe + "}\n" + probe + `,"etOmega":NaN}` + "\n" + `{"name":"p","targetXiTT":1,"targetXiET":0.5}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(err error, path string) {
			if err == nil {
				return
			}
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("%s: %v (type %T) is not a *RequestError", path, err, err)
			}
		}
		// Buffered derive path: decode, then compile every app (duplicate
		// names, matrix shapes, finiteness, core validation).
		var dreq DeriveRequest
		if err := decodeStrict(data, &dreq); err == nil {
			_, err := dreq.applications()
			check(err, "derive compile")
		}
		// Buffered allocate path: envelope normalisation plus per-fleet
		// model compilation (the allocation itself can be exponential for
		// policy "exact", so compiling is where fuzzing stops).
		var areq AllocateRequest
		if err := decodeStrict(data, &areq); err == nil {
			fleets, _, err := areq.FleetRequests()
			check(err, "allocate envelope")
			for i := range fleets {
				_, _, err := fleets[i].spec()
				check(err, "allocate compile")
			}
		}
		// NDJSON path: every line either compiles or carries a typed error;
		// bad lines never stop the scan, and the response codec must encode
		// whatever row comes out.
		var out bytes.Buffer
		for ln := range DecodeRequests(bytes.NewReader(data), 1<<16) {
			row := StreamRow{Index: ln.Index}
			if ln.Err != nil {
				check(ln.Err, "stream decode")
				row.Error = ln.Err.Error()
			} else if _, err := ln.Val.application(ln.Index); err != nil {
				check(err, "stream compile")
				row.Error = err.Error()
			}
			if err := EncodeResult(&out, row); err != nil {
				t.Fatalf("encoding row %d: %v", ln.Index, err)
			}
		}
		// Buffered calibrate path: decode, then compile every app (duplicate
		// names, response targets, etOmega, plus the derive checks).
		var creq CalibrateRequest
		if err := decodeStrict(data, &creq); err == nil {
			_, err := creq.applications()
			check(err, "calibrate compile")
		}
		for ln := range DecodeLines[CalibrateAppSpec](bytes.NewReader(data), 1<<16) {
			if ln.Err != nil {
				check(ln.Err, "calibrate stream decode")
				continue
			}
			_, err := ln.Val.application(ln.Index)
			check(err, "calibrate stream compile")
		}
		for ln := range DecodeLines[FleetRequest](bytes.NewReader(data), 1<<16) {
			if ln.Err != nil {
				check(ln.Err, "fleet stream decode")
				continue
			}
			_, _, err := ln.Val.spec()
			check(err, "fleet stream compile")
		}
	})
}
