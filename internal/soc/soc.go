// Package soc models the heterogeneous RISC-V system-on-chip of the paper's
// §6.4 validation (a Chipyard SoC with a protobuf-serialization accelerator
// and a SHA3 accelerator, simulated there with FireSim): three cores, two
// accelerators, and the three measurement benchmarks — unaccelerated,
// accelerated, and software-chained execution over a fleet-representative
// protobuf corpus. The software under test is real: messages are serialized
// with internal/protowire and hashed with internal/sha3, and the chained
// pipeline's digests are checked against direct computation. Only cycle
// timing is a cost model rather than RTL.
package soc

import (
	"fmt"
	"time"

	"hyperprof/internal/protowire"
	"hyperprof/internal/sha3"
	"hyperprof/internal/sim"
)

// Config is the SoC cost model. Per-byte CPU costs are calibrated so a
// default corpus lands near Table 8's measured magnitudes; accelerator
// speedups and setups are the paper's measured values.
type Config struct {
	// CPU costs for running each phase on a Rocket-class in-order core.
	ProtoCPUNsPerByte float64
	SHA3CPUNsPerByte  float64
	// OtherCPUNsPerByte covers the unaccelerated component: protobuf
	// message initialization, threading and measurement overheads.
	OtherCPUNsPerByte float64
	// PerMsgOverhead is a fixed unaccelerated cost per message.
	PerMsgOverhead time.Duration

	// Accelerator parameters (Table 8: 31x / 51.3x, 1488.9µs / 4.1µs).
	ProtoAccelSpeedup float64
	SHA3AccelSpeedup  float64
	ProtoAccelSetup   time.Duration
	SHA3AccelSetup    time.Duration

	// HandoffOverhead is the per-element cost of the software chain's
	// queue/thread handoff between accelerators.
	HandoffOverhead time.Duration
}

// DefaultConfig returns the Table 8 calibration.
func DefaultConfig() Config {
	return Config{
		ProtoCPUNsPerByte: 4.3,
		SHA3CPUNsPerByte:  9.3,
		OtherCPUNsPerByte: 38,
		PerMsgOverhead:    2 * time.Microsecond,
		ProtoAccelSpeedup: 31,
		SHA3AccelSpeedup:  51.3,
		ProtoAccelSetup:   time.Duration(1488.9 * float64(time.Microsecond)),
		SHA3AccelSetup:    time.Duration(4.1 * float64(time.Microsecond)),
		// Chained handoffs use pipeline-FIFO-style queues rather than
		// shared-memory synchronization (§6.3.2), so the per-element cost
		// is tens of nanoseconds, not microseconds.
		HandoffOverhead: 50 * time.Nanosecond,
	}
}

// SoC is the simulated system-on-chip.
type SoC struct {
	k     *sim.Kernel
	cfg   Config
	cores *sim.Resource
}

// New creates a SoC with three cores on the given kernel (one per chain
// stage, as in the paper's validation platform).
func New(k *sim.Kernel, cfg Config) *SoC {
	return &SoC{k: k, cfg: cfg, cores: sim.NewResource(k, 3)}
}

// Item is one workload element: a message and its serialized form.
type Item struct {
	Msg  *protowire.Message
	Wire []byte
}

// Corpus generates a deterministic fleet-representative protobuf corpus of n
// messages.
func Corpus(seed uint64, n int) []*protowire.Message {
	gen := protowire.NewGenerator(seed, protowire.DefaultGenConfig())
	return gen.Corpus(3, n)
}

func (s *SoC) protoCPU(bytes int) time.Duration {
	return time.Duration(s.cfg.ProtoCPUNsPerByte * float64(bytes))
}

func (s *SoC) sha3CPU(bytes int) time.Duration {
	return time.Duration(s.cfg.SHA3CPUNsPerByte * float64(bytes))
}

func (s *SoC) otherCPU(bytes int) time.Duration {
	return time.Duration(s.cfg.OtherCPUNsPerByte*float64(bytes)) + s.cfg.PerMsgOverhead
}

// Unaccelerated is the first benchmark: on one core, initialize and
// serialize every message, then hash every serialized message. It returns
// the three phase times (t_sub values) and the real digests.
type Unaccelerated struct {
	OtherCPU time.Duration
	ProtoCPU time.Duration
	SHA3CPU  time.Duration
	Wire     [][]byte
	Digests  [][32]byte
	Bytes    int64
}

// MeasureUnaccelerated runs the unaccelerated benchmark to completion.
func (s *SoC) MeasureUnaccelerated(corpus []*protowire.Message) *Unaccelerated {
	out := &Unaccelerated{}
	s.k.Go("soc-unaccel", func(p *sim.Proc) {
		p.Acquire(s.cores, 1)
		defer s.cores.Release(1)
		// Phase 0: message initialization and benchmark overhead.
		start := p.Now()
		sizes := make([]int, len(corpus))
		for i, m := range corpus {
			sizes[i] = m.Size()
			p.Sleep(s.otherCPU(sizes[i]))
		}
		out.OtherCPU = p.Now() - start

		// Phase 1: serialize (real encoding).
		start = p.Now()
		for i, m := range corpus {
			wire := m.Marshal(nil)
			out.Wire = append(out.Wire, wire)
			out.Bytes += int64(len(wire))
			p.Sleep(s.protoCPU(len(wire)))
			_ = i
		}
		out.ProtoCPU = p.Now() - start

		// Phase 2: hash (real Keccak).
		start = p.Now()
		for _, w := range out.Wire {
			out.Digests = append(out.Digests, sha3.Sum256(w))
			p.Sleep(s.sha3CPU(len(w)))
		}
		out.SHA3CPU = p.Now() - start
	})
	s.k.Run()
	return out
}

// Accelerated is the second benchmark: each phase offloaded to its
// accelerator (synchronously), yielding measured speedups and setup times.
type Accelerated struct {
	ProtoTime    time.Duration // accelerated serialization phase (incl. setup)
	SHA3Time     time.Duration
	ProtoSpeedup float64 // measured against the CPU phase
	SHA3Speedup  float64
	ProtoSetup   time.Duration
	SHA3Setup    time.Duration
}

// MeasureAccelerated runs the accelerated benchmark given the unaccelerated
// baseline measurement.
func (s *SoC) MeasureAccelerated(base *Unaccelerated) *Accelerated {
	out := &Accelerated{ProtoSetup: s.cfg.ProtoAccelSetup, SHA3Setup: s.cfg.SHA3AccelSetup}
	s.k.Go("soc-accel", func(p *sim.Proc) {
		p.Acquire(s.cores, 1)
		defer s.cores.Release(1)
		start := p.Now()
		p.Sleep(s.cfg.ProtoAccelSetup)
		for _, w := range base.Wire {
			p.Sleep(time.Duration(float64(s.protoCPU(len(w))) / s.cfg.ProtoAccelSpeedup))
		}
		out.ProtoTime = p.Now() - start

		start = p.Now()
		p.Sleep(s.cfg.SHA3AccelSetup)
		for _, w := range base.Wire {
			p.Sleep(time.Duration(float64(s.sha3CPU(len(w))) / s.cfg.SHA3AccelSpeedup))
		}
		out.SHA3Time = p.Now() - start
	})
	s.k.Run()
	if d := out.ProtoTime - out.ProtoSetup; d > 0 {
		out.ProtoSpeedup = float64(base.ProtoCPU) / float64(d)
	}
	if d := out.SHA3Time - out.SHA3Setup; d > 0 {
		out.SHA3Speedup = float64(base.SHA3CPU) / float64(d)
	}
	return out
}

// Chained is the third benchmark: initialization, the protobuf accelerator
// and the SHA3 accelerator run as a three-stage pipeline on separate cores,
// elements flowing through queues — software-centric accelerator chaining.
type Chained struct {
	E2E     time.Duration
	Digests [][32]byte
}

// MeasureChained runs the chained benchmark over the corpus. Mirroring the
// paper's benchmark construction ("we first serialized identical fleet-wide
// representative protobuf messages then computed their SHA3 hash"), the
// unaccelerated initialization phase completes before the accelerator chain
// begins; the two accelerators then pipeline element-by-element on parallel
// threads, with their setups overlapping each other and each handoff paying
// a thread/queue synchronization cost.
func (s *SoC) MeasureChained(corpus []*protowire.Message) *Chained {
	out := &Chained{}
	protoQ := sim.NewQueue[*Item](s.k)
	sha3Q := sim.NewQueue[*Item](s.k)
	initDone := sim.NewSignal(s.k)
	done := sim.NewBarrier(s.k, 1)
	var start, end time.Duration
	n := len(corpus)

	// Phase 0: initialization (the unaccelerated component).
	s.k.Go("soc-chain-init", func(p *sim.Proc) {
		p.Acquire(s.cores, 1)
		start = p.Now()
		for _, m := range corpus {
			p.Sleep(s.otherCPU(m.Size()))
			protoQ.Put(&Item{Msg: m})
		}
		s.cores.Release(1)
		initDone.Fire()
	})
	// Stage 1: protobuf serialization accelerator.
	s.k.Go("soc-chain-proto", func(p *sim.Proc) {
		p.Wait(initDone)
		p.Acquire(s.cores, 1)
		defer s.cores.Release(1)
		p.Sleep(s.cfg.ProtoAccelSetup)
		for i := 0; i < n; i++ {
			it := sim.GetQueue(p, protoQ)
			it.Wire = it.Msg.Marshal(nil)
			p.Sleep(time.Duration(float64(s.protoCPU(len(it.Wire))) / s.cfg.ProtoAccelSpeedup))
			p.Sleep(s.cfg.HandoffOverhead)
			sha3Q.Put(it)
		}
	})
	// Stage 2: SHA3 accelerator (sets up concurrently with stage 1).
	s.k.Go("soc-chain-sha3", func(p *sim.Proc) {
		p.Wait(initDone)
		p.Acquire(s.cores, 1)
		defer s.cores.Release(1)
		p.Sleep(s.cfg.SHA3AccelSetup)
		for i := 0; i < n; i++ {
			it := sim.GetQueue(p, sha3Q)
			p.Sleep(time.Duration(float64(s.sha3CPU(len(it.Wire))) / s.cfg.SHA3AccelSpeedup))
			out.Digests = append(out.Digests, sha3.Sum256(it.Wire))
		}
		end = p.Now()
		done.Done()
	})
	s.k.Run()
	if done.Pending() != 0 {
		panic(fmt.Sprintf("soc: chained pipeline deadlocked with %d live procs", s.k.Live()))
	}
	out.E2E = end - start
	return out
}
