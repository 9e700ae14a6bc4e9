package dispatch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{ID: 7, Kind: "safety/arm", Body: []byte(`{"seed":3}`)}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Kind != in.Kind || string(out.Body) != string(in.Body) {
		t.Fatalf("round trip mangled frame: %+v -> %+v", in, out)
	}
}

func TestFrameRejectsAbsurdLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var out request
	err := readFrame(bytes.NewReader(hdr[:]), &out)
	if err == nil || !strings.Contains(err.Error(), "malformed frame length") {
		t.Fatalf("want malformed-length error, got %v", err)
	}
}

func TestFrameRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString(`{"id":1`) // far fewer than 100 bytes, then EOF
	var out request
	err := readFrame(&buf, &out)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("want truncated-frame error, got %v", err)
	}
}

// TestFrameTruncatedHugeLengthAllocatesLittle: a header claiming a frame just
// under MaxFrame, followed by a few bytes and EOF (a worker dying mid-write),
// must fail as truncated without allocating the claimed length.
func TestFrameTruncatedHugeLengthAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	in := append(hdr[:], `{"id":1`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out response
	err := readFrame(bytes.NewReader(in), &out)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("want truncated-frame error, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a truncated frame allocated %d bytes", got)
	}
}

func TestFrameRejectsGarbagePayload(t *testing.T) {
	var buf bytes.Buffer
	payload := "not json at all, definitely"
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.WriteString(payload)
	var out request
	err := readFrame(&buf, &out)
	if err == nil || !strings.Contains(err.Error(), "malformed frame payload") {
		t.Fatalf("want malformed-payload error, got %v", err)
	}
}

func TestServeAnswersUntilEOF(t *testing.T) {
	var in, out bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeFrame(&in, request{ID: i, Kind: "echo", Body: []byte(`"x"`)}); err != nil {
			t.Fatal(err)
		}
	}
	echo := Handler(func(kind string, body json.RawMessage) (json.RawMessage, error) { return body, nil })
	if err := Serve(&in, &out, echo); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var resp response
		if err := readFrame(&out, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != i || string(resp.Body) != `"x"` || resp.Error != "" {
			t.Fatalf("response %d wrong: %+v", i, resp)
		}
	}
}
