package compress

import (
	"bytes"
	"testing"
)

// The committed seed corpora under testdata/fuzz/ replay as ordinary tests;
// explore further with, e.g.:
//
//	go test ./internal/compress -run '^$' -fuzz FuzzEncodedLen -fuzztime 30s

// FuzzEncodedLen checks that the size-only pass agrees with the encoder on
// every input and that every encoding round-trips.
func FuzzEncodedLen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabcabcabcabcabcabcabc"))
	f.Fuzz(func(t *testing.T, src []byte) {
		enc, err := Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		if n := EncodedLen(src); n != len(enc) {
			t.Fatalf("EncodedLen = %d, len(Encode) = %d", n, len(enc))
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("round trip: %d bytes in, %d out", len(src), len(dec))
		}
	})
}

// FuzzDecode feeds arbitrary bytes to the decoder: Decode and DecodedLen
// must return an error rather than panic, and whatever Decode accepts must
// match its header and survive re-encoding.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 4<<2 | tagLiteral, 'h', 'e', 'l', 'l', 'o'})
	f.Fuzz(func(t *testing.T, src []byte) {
		n, lenErr := DecodedLen(src)
		dec, err := Decode(src)
		if err != nil {
			return
		}
		if lenErr != nil || n != len(dec) {
			t.Fatalf("Decode produced %d bytes; DecodedLen = %d, %v", len(dec), n, lenErr)
		}
		enc, err := Encode(dec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Decode(enc)
		if err != nil || !bytes.Equal(again, dec) {
			t.Fatalf("re-encoding the decoded block does not round-trip: %v", err)
		}
	})
}
