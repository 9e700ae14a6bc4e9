package soc

import (
	"fmt"
	"math"
	"time"

	"hyperprof/internal/compress"
	"hyperprof/internal/model"
	"hyperprof/internal/sha3"
	"hyperprof/internal/sim"
)

// This file extends the §6.4 validation along the paper's stated future
// work ("additional synthetic data ... careful identification of common
// sequential patterns"): a three-accelerator chain that serializes each
// message, block-compresses the wire bytes (the paper's biggest datacenter
// tax), and hashes the compressed block. All three stages run real code —
// protowire, compress, sha3 — and the result digests are verified against a
// serial reference.

// Chain3Config extends the SoC cost model with the compression stage.
type Chain3Config struct {
	SoC Config
	// CompressCPUNsPerByte is the CPU cost of block compression.
	CompressCPUNsPerByte float64
	// CompressAccelSpeedup/Setup parameterize the compression accelerator
	// (modeled on the IBM z15 on-chip compression unit: large speedup,
	// small setup).
	CompressAccelSpeedup float64
	CompressAccelSetup   time.Duration
}

// DefaultChain3Config returns the calibrated three-stage setup.
func DefaultChain3Config() Chain3Config {
	return Chain3Config{
		SoC:                  DefaultConfig(),
		CompressCPUNsPerByte: 6.5,
		CompressAccelSpeedup: 40,
		CompressAccelSetup:   25 * time.Microsecond,
	}
}

// Chain3Result is the outcome of the extended validation.
type Chain3Result struct {
	// Measured phase times from the serial run.
	OtherCPU    time.Duration
	ProtoCPU    time.Duration
	CompressCPU time.Duration
	SHA3CPU     time.Duration
	// Measured chained execution and the model's estimate.
	MeasuredChained time.Duration
	ModeledChained  time.Duration
	DiffFrac        float64
	// Compression facts (real codec).
	WireBytes       int64
	CompressedBytes int64
	Ratio           float64
	Messages        int
}

// ValidateChain3 runs the serial and chained three-stage benchmarks and
// compares the measurement against the chained model (Eqs 9-12 with C = 3).
func ValidateChain3(seed uint64, n int, cfg Chain3Config) (*Chain3Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("soc: corpus size must be positive")
	}
	corpus := Corpus(seed, n)
	res := &Chain3Result{Messages: n}

	// Serial reference on one core: init, serialize, compress, hash.
	k := sim.New()
	s := New(k, cfg.SoC)
	wires := make([][]byte, n)
	blocks := make([][]byte, n)
	refDigests := make([][32]byte, n)
	k.Go("chain3-serial", func(p *sim.Proc) {
		p.Acquire(s.cores, 1)
		defer s.cores.Release(1)
		start := p.Now()
		for _, m := range corpus {
			p.Sleep(s.otherCPU(m.Size()))
		}
		res.OtherCPU = p.Now() - start

		start = p.Now()
		for i, m := range corpus {
			wires[i] = m.Marshal(nil)
			res.WireBytes += int64(len(wires[i]))
			p.Sleep(s.protoCPU(len(wires[i])))
		}
		res.ProtoCPU = p.Now() - start

		start = p.Now()
		for i, w := range wires {
			enc, err := compress.Encode(w)
			if err != nil {
				panic(err)
			}
			blocks[i] = enc
			res.CompressedBytes += int64(len(enc))
			p.Sleep(time.Duration(cfg.CompressCPUNsPerByte * float64(len(w))))
		}
		res.CompressCPU = p.Now() - start

		start = p.Now()
		for i, blk := range blocks {
			refDigests[i] = sha3.Sum256(blk)
			p.Sleep(s.sha3CPU(len(blk)))
		}
		res.SHA3CPU = p.Now() - start
	})
	k.Run()
	if res.WireBytes > 0 {
		res.Ratio = float64(res.WireBytes) / float64(res.CompressedBytes)
	}

	// Chained run: init completes, then the three accelerators pipeline.
	k2 := sim.New()
	s2 := &SoC{k: k2, cfg: cfg.SoC, cores: sim.NewResource(k2, 4)}
	protoQ := sim.NewQueue[*Item](k2)
	compQ := sim.NewQueue[*Item](k2)
	sha3Q := sim.NewQueue[*Item](k2)
	initDone := sim.NewSignal(k2)
	gotDigests := make([][32]byte, 0, n)
	var start, end time.Duration

	k2.Go("chain3-init", func(p *sim.Proc) {
		p.Acquire(s2.cores, 1)
		start = p.Now()
		for _, m := range corpus {
			p.Sleep(s2.otherCPU(m.Size()))
			protoQ.Put(&Item{Msg: m})
		}
		s2.cores.Release(1)
		initDone.Fire()
	})
	k2.Go("chain3-proto", func(p *sim.Proc) {
		p.Wait(initDone)
		p.Acquire(s2.cores, 1)
		defer s2.cores.Release(1)
		p.Sleep(cfg.SoC.ProtoAccelSetup)
		for i := 0; i < n; i++ {
			it := sim.GetQueue(p, protoQ)
			it.Wire = it.Msg.Marshal(nil)
			p.Sleep(time.Duration(float64(s2.protoCPU(len(it.Wire))) / cfg.SoC.ProtoAccelSpeedup))
			p.Sleep(cfg.SoC.HandoffOverhead)
			compQ.Put(it)
		}
	})
	k2.Go("chain3-compress", func(p *sim.Proc) {
		p.Wait(initDone)
		p.Acquire(s2.cores, 1)
		defer s2.cores.Release(1)
		p.Sleep(cfg.CompressAccelSetup)
		for i := 0; i < n; i++ {
			it := sim.GetQueue(p, compQ)
			enc, err := compress.Encode(it.Wire)
			if err != nil {
				panic(err)
			}
			cpuCost := time.Duration(cfg.CompressCPUNsPerByte * float64(len(it.Wire)))
			p.Sleep(time.Duration(float64(cpuCost) / cfg.CompressAccelSpeedup))
			p.Sleep(cfg.SoC.HandoffOverhead)
			it.Wire = enc
			sha3Q.Put(it)
		}
	})
	k2.Go("chain3-sha3", func(p *sim.Proc) {
		p.Wait(initDone)
		p.Acquire(s2.cores, 1)
		defer s2.cores.Release(1)
		p.Sleep(cfg.SoC.SHA3AccelSetup)
		for i := 0; i < n; i++ {
			it := sim.GetQueue(p, sha3Q)
			p.Sleep(time.Duration(float64(s2.sha3CPU(len(it.Wire))) / cfg.SoC.SHA3AccelSpeedup))
			gotDigests = append(gotDigests, sha3.Sum256(it.Wire))
		}
		end = p.Now()
	})
	k2.Run()
	if k2.Live() != 0 {
		return nil, fmt.Errorf("soc: chain3 pipeline deadlocked with %d live procs", k2.Live())
	}
	res.MeasuredChained = end - start

	// Verify digests against the serial reference.
	if len(gotDigests) != n {
		return nil, fmt.Errorf("soc: chain3 produced %d digests, want %d", len(gotDigests), n)
	}
	for i := range refDigests {
		if gotDigests[i] != refDigests[i] {
			return nil, fmt.Errorf("soc: chain3 digest %d differs from serial reference", i)
		}
	}

	// Model the three-component chain.
	sys := model.System{
		CPUTime: (res.OtherCPU + res.ProtoCPU + res.CompressCPU + res.SHA3CPU).Seconds(),
		F:       1,
		Components: []model.Component{
			{Name: "proto-ser", Time: res.ProtoCPU.Seconds(), Accelerated: true,
				Speedup: cfg.SoC.ProtoAccelSpeedup, Setup: cfg.SoC.ProtoAccelSetup.Seconds(), Chained: true},
			{Name: "compress", Time: res.CompressCPU.Seconds(), Accelerated: true,
				Speedup: cfg.CompressAccelSpeedup, Setup: cfg.CompressAccelSetup.Seconds(), Chained: true},
			{Name: "sha3", Time: res.SHA3CPU.Seconds(), Accelerated: true,
				Speedup: cfg.SoC.SHA3AccelSpeedup, Setup: cfg.SoC.SHA3AccelSetup.Seconds(), Chained: true},
		},
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	res.ModeledChained = time.Duration(sys.AcceleratedE2E() * float64(time.Second))
	if res.MeasuredChained > 0 {
		res.DiffFrac = math.Abs(float64(res.ModeledChained-res.MeasuredChained)) / float64(res.MeasuredChained)
	}
	return res, nil
}
