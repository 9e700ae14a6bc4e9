package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzTraceUnmarshalJSON feeds arbitrary bytes to the trace decoder traces
// cross process boundaries through on the exec backend. Decoding must
// return an error rather than panic; a decoded trace must survive the
// analyses and the Chrome export, and its encoding must be stable through a
// decode.
//
// The committed seed corpus under testdata/fuzz/ replays as an ordinary
// test; explore further with, e.g.:
//
//	go test ./internal/trace -run '^$' -fuzz FuzzTraceUnmarshalJSON -fuzztime 30s
func FuzzTraceUnmarshalJSON(f *testing.F) {
	tr := NewTracer(1)
	t0 := tr.Start("spanner", 10)
	t0.Annotate(10, 40, CPU)
	t0.Annotate(20, 60, Remote)
	t0.Annotate(50, 70, IO)
	tr.Finish(t0, 80)
	good, err := json.Marshal(t0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":1,"start":50,"end":10,"intervals":[{"Start":9,"End":-4,"Class":7}],"sampled":true}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Trace
		if err := json.Unmarshal(data, &got); err != nil {
			return
		}
		got.ComputeBreakdown()
		got.ComputeOverlap()
		Aggregate([]*Trace{&got})
		if _, err := ExportChrome([]*Trace{&got}, 10); err != nil {
			t.Fatalf("exporting a decoded trace: %v", err)
		}
		enc, err := json.Marshal(&got)
		if err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		var back Trace
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the trace:\n%s\n%s", enc, again)
		}
	})
}
