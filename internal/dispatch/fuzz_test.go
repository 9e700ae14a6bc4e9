package dispatch

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the coordinator's frame reader: a
// crashed or misbehaving worker's stdout is untrusted input. readFrame must
// return an error rather than panic, and any response it accepts must
// re-encode to a frame that decodes to the same encoding again.
//
// The committed seed corpus under testdata/fuzz/ replays as an ordinary
// test; explore further with, e.g.:
//
//	go test ./internal/dispatch -run '^$' -fuzz FuzzReadFrame -fuzztime 30s
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if err := writeFrame(&good, response{ID: 3, Body: json.RawMessage(`{"rows":[1,2]}`)}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x0f, 0xff, 0xff, 0xff, '{'})
	f.Add([]byte("\x00\x00\x00\x0b{\"id\":\"x\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp response
		if err := readFrame(bytes.NewReader(data), &resp); err != nil {
			return
		}
		var first bytes.Buffer
		if err := writeFrame(&first, resp); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		var again response
		if err := readFrame(bytes.NewReader(first.Bytes()), &again); err != nil {
			t.Fatalf("decoding a re-encoded frame: %v", err)
		}
		var second bytes.Buffer
		if err := writeFrame(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
