package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// This file holds the output checks. Every check compares bytes: a served
// row must equal a reference row the benchmark derived in-process through
// the service's own functions, not merely parse.

// streamLine is one NDJSON response row of a derive stream.
type streamLine struct {
	Index     int             `json:"index"`
	Result    json.RawMessage `json:"result"`
	Error     string          `json:"error"`
	Cancelled bool            `json:"cancelled"`
}

// streamResults parses a /v1/derive/stream response that must carry
// exactly n result rows with indices 0 … n−1 in order, and returns each
// row's result object. Any error row, terminal index −1 row, or missing,
// duplicated or out-of-order index fails the request.
func streamResults(rec *record, n int) [][]byte {
	var out [][]byte
	for i, line := range bytes.Split(bytes.TrimRight(rec.resp, "\n"), []byte("\n")) {
		var row streamLine
		if err := json.Unmarshal(line, &row); err != nil {
			rec.fail("row %d: %v", i, err)
			return nil
		}
		switch {
		case row.Index == -1:
			rec.fail("terminal row: %s", row.Error)
			return nil
		case row.Error != "":
			rec.fail("row %d: error row: %s", row.Index, row.Error)
			return nil
		case row.Index != i:
			rec.fail("row %d carries index %d", i, row.Index)
			return nil
		case len(row.Result) == 0:
			rec.fail("row %d: no result", i)
			return nil
		}
		out = append(out, row.Result)
	}
	if len(out) != n {
		rec.fail("%d rows, want %d", len(out), n)
		return nil
	}
	return out
}

// bufferedResults parses a /v1/derive response that must
// carry exactly n app rows and returns each row compacted. The cumulative
// cache counters are left out: they depend on everything served before.
func bufferedResults(rec *record, n int) [][]byte {
	var resp struct {
		Apps []json.RawMessage `json:"apps"`
	}
	if err := json.Unmarshal(rec.resp, &resp); err != nil {
		rec.fail("response: %v", err)
		return nil
	}
	if len(resp.Apps) != n {
		rec.fail("%d apps, want %d", len(resp.Apps), n)
		return nil
	}
	out := make([][]byte, n)
	for i, raw := range resp.Apps {
		out[i] = compact(raw)
	}
	return out
}

func compact(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b // not JSON: the byte comparison fails it
	}
	return buf.Bytes()
}

// ref is one reference result row, derived in-process under the app name
// name. Rows of one key differ only in the app name, which is the first
// field of the row.
type ref struct {
	name string
	row  []byte
}

// renamed returns the reference row as an app named name would get it.
func (r ref) renamed(name string) []byte {
	prefix := `{"name":"` + r.name + `"`
	if !bytes.HasPrefix(r.row, []byte(prefix)) {
		panic(fmt.Sprintf("reference row does not start with its name: %.80s", r.row))
	}
	out := []byte(`{"name":"` + name + `"`)
	return append(out, r.row[len(prefix):]...)
}

// matchRows compares every served row with its reference.
func matchRows(rec *record, got [][]byte, want []ref, names []string) {
	if got == nil {
		return
	}
	for j := range got {
		if !bytes.Equal(got[j], want[j].renamed(names[j])) {
			rec.fail("row %d (%s) differs from the reference:\n got  %.300s\n want %.300s",
				j, names[j], got[j], want[j].renamed(names[j]))
			return
		}
	}
	rec.rows = len(got)
}
