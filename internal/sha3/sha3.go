// Package sha3 implements the FIPS-202 SHA3-256 hash from first principles
// on top of the Keccak-f[1600] permutation. It is the hashing workload chained after
// protobuf serialization in the paper's Table 8 validation (the open-source
// SHA3 RTL accelerator of Schmidt & Izraelevitz), reimplemented here in
// software so the SoC model can execute it functionally.
package sha3

import (
	"encoding/binary"
	"hash"
)

// rc holds the 24 round constants of Keccak-f[1600].
var rc = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// rotation offsets for the rho step, indexed [x][y].
var rotc = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

func rotl64(v uint64, n uint) uint64 { return v<<n | v>>(64-n) }

// keccakF1600 applies the full 24-round permutation to the state in place.
// State layout: a[x + 5*y] as in the FIPS-202 reference.
func keccakF1600(a *[25]uint64) {
	var b [25]uint64
	var c, d [5]uint64
	for round := 0; round < 24; round++ {
		// theta
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ rotl64(c[(x+1)%5], 1)
			for y := 0; y < 5; y++ {
				a[x+5*y] ^= d[x]
			}
		}
		// rho and pi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y+5*((2*x+3*y)%5)] = rotl64(a[x+5*y], rotc[x][y])
			}
		}
		// chi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] = b[x+5*y] ^ (^b[(x+1)%5+5*y] & b[(x+2)%5+5*y])
			}
		}
		// iota
		a[0] ^= rc[round]
	}
}

// SHA3-256 sponge parameters: the rate is the bytes absorbed per
// permutation, dsSHA3 the domain-separation byte with the first padding bit.
const (
	rate   = 136
	size   = 32
	dsSHA3 = 0x06
)

// state is a SHA3-256 Keccak sponge.
type state struct {
	a   [25]uint64
	buf []byte // absorbed input not yet permuted; len < rate
}

// Write absorbs input into the sponge. It never returns an error.
func (s *state) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		space := rate - len(s.buf)
		if space > len(p) {
			space = len(p)
		}
		s.buf = append(s.buf, p[:space]...)
		p = p[space:]
		if len(s.buf) == rate {
			s.absorb()
		}
	}
	return n, nil
}

func (s *state) absorb() {
	for i := 0; i < rate/8; i++ {
		s.a[i] ^= binary.LittleEndian.Uint64(s.buf[i*8:])
	}
	keccakF1600(&s.a)
	s.buf = s.buf[:0]
}

// Sum appends the digest to b without disturbing further writes: it pads
// a copy of the sponge with the pad10*1 rule and squeezes one block.
func (s *state) Sum(b []byte) []byte {
	dup := *s
	block := make([]byte, rate)
	copy(block, s.buf)
	block[len(s.buf)] = dsSHA3
	block[rate-1] |= 0x80
	dup.buf = block
	dup.absorb()
	for i := 0; i < size/8; i++ {
		b = binary.LittleEndian.AppendUint64(b, dup.a[i])
	}
	return b
}

// Reset returns the sponge to its initial state.
func (s *state) Reset() {
	s.a = [25]uint64{}
	s.buf = s.buf[:0]
}

// Size returns the digest length in bytes.
func (s *state) Size() int { return size }

// BlockSize returns the sponge rate in bytes.
func (s *state) BlockSize() int { return rate }

// New256 returns a SHA3-256 hash.
func New256() hash.Hash { return &state{} }

// Sum256 returns the SHA3-256 digest of data.
func Sum256(data []byte) [32]byte {
	h := New256()
	h.Write(data)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}
