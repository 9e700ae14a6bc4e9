package protowire

import "testing"

// fuzzSchema is a two-level schema that covers every field kind, singular
// and repeated, including a nested message.
var fuzzSchema = MustParseSchema(`
	message Inner {
		int64 a = 1; sint64 b = 2; bool c = 3; fixed64 d = 4;
		double e = 5; fixed32 f = 6; string g = 7; bytes h = 8;
		repeated int64 ra = 9; repeated string rg = 10;
	}
	message Outer {
		int64 id = 1; sint64 delta = 2; bool flag = 3; fixed64 hash = 4;
		double score = 5; fixed32 crc = 6; string name = 7; bytes blob = 8;
		Inner inner = 9; repeated Inner items = 10; repeated sint64 deltas = 11;
	}
`)

// FuzzUnmarshal feeds arbitrary bytes to the dynamic decoder: Unmarshal must
// return an error rather than panic, and any message it accepts must
// re-encode to exactly Size() bytes that decode to an equal message.
//
// The committed seed corpus under testdata/fuzz/ replays as an ordinary
// test; explore further with, e.g.:
//
//	go test ./internal/protowire -run '^$' -fuzz FuzzUnmarshal -fuzztime 30s
func FuzzUnmarshal(f *testing.F) {
	outer, inner := fuzzSchema["Outer"], fuzzSchema["Inner"]
	in := NewMessage(inner).SetInt(1, 7).SetInt(2, EncodeZigZag(-3)).SetInt(3, 1).
		SetInt(4, 1<<60).SetInt(5, 0x400921fb54442d18).SetInt(6, 0xdeadbeef).
		SetBytes(7, []byte("seven")).SetBytes(8, []byte{0, 1, 2}).
		SetInt(9, 1).SetInt(9, 2).SetBytes(10, []byte("x")).SetBytes(10, nil)
	msg := NewMessage(outer).SetInt(1, 42).SetInt(2, 5).SetInt(3, 0).SetInt(4, 9).
		SetInt(5, 3).SetInt(6, 4).SetBytes(7, []byte("outer")).SetBytes(8, []byte("blob")).
		SetMsg(9, in).SetMsg(10, in).SetMsg(10, NewMessage(inner)).SetInt(11, 1).SetInt(11, 2)
	f.Add(msg.Marshal(nil))
	f.Add([]byte{})
	f.Add([]byte{0x4a, 0x02, 0x08})       // inner message cut short
	f.Add([]byte{0x78, 0xff, 0xff, 0xff}) // unknown field, truncated varint
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(outer, data)
		if err != nil {
			return
		}
		enc := m.Marshal(nil)
		if len(enc) != m.Size() {
			t.Fatalf("Marshal wrote %d bytes, Size says %d", len(enc), m.Size())
		}
		back, err := Unmarshal(outer, enc)
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if !Equal(m, back) {
			t.Fatalf("round trip changed the message:\n%v\n%v", m, back)
		}
	})
}
