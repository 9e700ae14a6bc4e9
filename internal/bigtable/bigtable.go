// Package bigtable simulates a BigTable-like cluster-level NoSQL key-value
// store (§2.2.2): tablet servers with in-memory memtables, a replicated
// commit log and immutable SSTables on the shared distributed file system,
// minor compactions (memtable flushes) and blocking major compactions in
// remote storage — the remote-work component §4.1 attributes to BigTable.
// Key/value data is real: gets return the bytes puts stored, merged across
// memtable, immutable memtables and SSTables newest-first.
package bigtable

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"hyperprof/internal/bloom"
	"hyperprof/internal/check"
	"hyperprof/internal/cluster"
	"hyperprof/internal/compress"
	"hyperprof/internal/netsim"
	"hyperprof/internal/obs"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/stats"
	"hyperprof/internal/storage"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// Config sizes a BigTable deployment.
type Config struct {
	// Tablets is the number of tablets (each owned by one tablet server).
	Tablets int
	// TabletServers is the number of serving machines.
	TabletServers int
	// Chunkservers backs the shared DFS.
	Chunkservers int
	// RowsPerTablet and ValueBytes size the dataset.
	RowsPerTablet int
	ValueBytes    int64
	// FlushEvery puts trigger a minor compaction (memtable flush).
	FlushEvery int
	// MajorEvery flushes trigger a blocking major compaction.
	MajorEvery int
	// ScanRows is the row count of a scan operation.
	ScanRows int
	// Seed drives all randomness.
	Seed uint64
	// Admission arms the front-door overload gate (see overload.go):
	// MaxQueue bounds concurrent operations per tablet server and
	// ShedStartFrac sheds probabilistically as in-flight load approaches it.
	// Target/Interval are unused — operations execute directly, there is no
	// queue whose sojourn could be bounded. The zero value disables the gate.
	Admission netsim.Admission
	// PartitionRecovery enables master-side partition handling: tablets on a
	// partitioned server are reassigned to reachable servers with a commit-log
	// replay (exactly the crash path, epoch fencing and duplicate-replay
	// detection included), restoring availability mid-partition. Off, ops on
	// a partitioned server's tablets fail until the heal — safe but
	// unavailable.
	PartitionRecovery bool
	// BrokenPartitionWrites is a broken-knob fixture: a partitioned tablet
	// server keeps acknowledging writes into its local memtable even though it
	// cannot reach the shared commit log, and the heal-time fencing rebuild
	// replays only the log — the acknowledged-but-unlogged writes vanish,
	// which the linearizability checker must flag as lost writes.
	BrokenPartitionWrites bool
}

// DefaultConfig returns a laptop-scale deployment preserving the
// paper-relevant behaviour.
func DefaultConfig() Config {
	return Config{
		Tablets:       8,
		TabletServers: 4,
		Chunkservers:  6,
		RowsPerTablet: 3000,
		ValueBytes:    1024,
		FlushEvery:    10,
		MajorEvery:    3,
		ScanRows:      100,
		Seed:          1,
	}
}

// Core-compute CPU budgets per operation (pre-tax), solved so the aggregate
// core split under the default mix lands on Figure 4's BigTable bar.
const (
	getCoreBudget   = 500 * time.Microsecond
	putCoreBudget   = 1140 * time.Microsecond
	scanCoreBudget  = 1110 * time.Microsecond
	minorCoreBudget = 2500 * time.Microsecond
	majorCoreBudget = 18 * time.Millisecond
)

// DB is a running BigTable deployment.
type DB struct {
	env     *platform.Env
	cfg     Config
	mgr     *cluster.Manager
	dfs     *storage.DFS
	taxes   platform.TaxTables
	tablets []*tablet
	rng     *stats.RNG
	zipf    *stats.Zipf

	getRecipe   platform.Recipe
	putRecipe   platform.Recipe
	scanRecipe  platform.Recipe
	minorRecipe platform.Recipe
	majorRecipe platform.Recipe

	// downServers marks failed tablet servers by machine index.
	downServers map[int]bool
	// partitioned marks tablet servers cut off from the rest of the cluster
	// (master, DFS and peers) by machine index. Unlike downServers the
	// machine itself is healthy — it just cannot be reached or reach out,
	// which is exactly the gray area split-brain bugs live in.
	partitioned map[int]bool

	// Front-door gate state (see overload.go): in-flight ops per tablet
	// server and the adaptive-shed stream. Nil/zero when the gate is off.
	gateInFlight map[int]int
	gateRNG      *stats.RNG

	// rec, when non-nil, records every Get/Put into an operation history for
	// the safety checker (see safety.go).
	rec *check.History
	// brokenLogTruncateEarly reintroduces the early-truncation bug: the
	// commit log is dropped when the memtable is *snapshotted* instead of
	// when the flush is *durable*, so a crash mid-flush loses acknowledged
	// writes. Test fixture for the checker.
	brokenLogTruncateEarly bool
	// brokenReplayDup disables log truncation entirely, so post-crash replay
	// re-applies records that are already durable in SSTables. Test fixture
	// for the duplicate-replay check.
	brokenReplayDup bool

	// sealBuf is the scratch every SSTable seal of this deployment reuses.
	sealBuf sealScratch

	// Counters for tests and reports.
	Gets, Puts, Scans, MinorCompactions, MajorCompactions int
	// Reassignments counts tablets moved off a failed server; Recoveries
	// counts completed commit-log replays; ReplayDups counts replayed
	// commit-log records that were already durable (always a safety bug).
	Reassignments, Recoveries, ReplayDups int
	// BloomSkips counts SSTable probes avoided by Bloom filters;
	// RawBytes/CompressedBytes account flush compression.
	BloomSkips                int
	RawBytes, CompressedBytes int64
	// Shed and ShedAdaptive count operations refused by the front-door gate
	// (hard bound vs. probabilistic; an op lands in at most one).
	Shed, ShedAdaptive int

	// Observability handles (nil when env.Obs is disabled; see enableObs).
	mMinorCompactions *obs.Counter
	mMajorCompactions *obs.Counter
	mTabletMoves      *obs.Counter
	mRecoveries       *obs.Counter
	mGetLat           *obs.Histogram
	mPutLat           *obs.Histogram
	mSheds            *obs.Counter
	mShedsAdaptive    *obs.Counter
}

type sstable struct {
	file string
	data map[string][]byte
	// bytes is the on-DFS (block-compressed) size; rawBytes the logical
	// size before compression.
	bytes    int64
	rawBytes int64
	// filter lets point reads skip DFS probes for keys this table cannot
	// contain.
	filter *bloom.Filter
}

// sealScratch holds the buffers seal reuses from one SSTable to the next.
// Each DB owns one: seal never parks, so no two seals of a DB overlap.
type sealScratch struct {
	keys []string
	raw  []byte
}

// seal finalizes an sstable: it builds the Bloom filter over its keys and
// sizes the DFS file as the real codec's block compression of its sorted
// contents. Only the compressed size is kept, so the codec runs size-only
// and the concatenated block lives in the reused scratch buffer.
func (s *sstable) seal(sc *sealScratch) {
	s.filter = bloom.New(len(s.data)+1, 0.01)
	keys := sc.keys[:0]
	size := 0
	for k, v := range s.data {
		keys = append(keys, k)
		size += len(k) + len(v)
	}
	slices.Sort(keys)
	raw := slices.Grow(sc.raw[:0], size)
	for _, k := range keys {
		s.filter.Add(k)
		raw = append(raw, k...)
		raw = append(raw, s.data[k]...)
	}
	sc.keys, sc.raw = keys, raw
	s.rawBytes = int64(len(raw))
	n := compress.EncodedLen(raw)
	if n < 0 {
		panic(fmt.Sprintf("bigtable: seal: block of %d bytes exceeds the codec limit", len(raw)))
	}
	s.bytes = max(int64(n), 1)
}

// logRec is one commit-log record: a sequenced mutation that survives a
// tablet-server crash on the DFS and is replayed on recovery.
type logRec struct {
	seq   int64
	key   string
	value []byte
}

type tablet struct {
	id        int
	server    *cluster.Machine
	serverIdx int // index into mgr.Machines() of the owning tablet server
	mem       map[string][]byte
	memSize   int64
	memPuts   int
	// log holds the un-truncated commit-log records, in seq order; logBytes
	// is their on-DFS volume — what a recovery replay must re-read after a
	// tablet-server crash. Records are truncated only once the flush that
	// made them durable has completed, never at snapshot time.
	log      []logRec
	logBytes int64
	// nextSeq is the next commit-log sequence number (1-based); durableSeq is
	// the highest sequence known durable in SSTables. Replaying a record with
	// seq <= durableSeq is the duplicate-replay safety violation.
	nextSeq    int64
	durableSeq int64
	// epoch is bumped on every reassignment; in-flight flushes from an older
	// epoch abort instead of promoting a snapshot the crash already lost.
	epoch int
	// flushPending holds the snapshot seqs of in-flight flushes in start
	// order; flushDone marks the completed ones, so durableSeq advances over
	// the completed prefix even when async flushes finish out of order.
	flushPending []int64
	flushDone    map[int64]bool
	imm          []*sstable // flushing memtable snapshots, newest first
	ssts         []*sstable // on-DFS sstables, newest first
	flushes      int
	nextSST      int
	// compacting is non-nil while a major compaction blocks the tablet.
	compacting *sim.Signal
	// recovering is non-nil while a post-crash log replay blocks the tablet.
	recovering *sim.Signal
}

// New builds and starts a deployment on the environment.
func New(env *platform.Env, cfg Config) (*DB, error) {
	if cfg.Tablets <= 0 || cfg.TabletServers <= 0 || cfg.RowsPerTablet <= 0 {
		return nil, fmt.Errorf("bigtable: invalid config %+v", cfg)
	}
	if cfg.Chunkservers < 3 {
		return nil, fmt.Errorf("bigtable: need >= 3 chunkservers, got %d", cfg.Chunkservers)
	}
	ramR, ssdR, hddR := platform.PaperStorageRatio(taxonomy.BigTable)
	// RAM sized so caches hold a few percent of the resident data.
	dataPerServer := int64(cfg.Tablets) * int64(cfg.RowsPerTablet) * cfg.ValueBytes / int64(cfg.TabletServers)
	ram := dataPerServer/32 + 256<<10
	caps := storage.Capacities{
		storage.RAM: ram,
		storage.SSD: ram * ssdR / ramR,
		storage.HDD: ram * hddR / ramR,
	}
	spec := cluster.Spec{
		Regions:         1,
		RacksPerRegion:  2,
		MachinesPerRack: (cfg.TabletServers + 1) / 2,
		CoresPerMachine: 16,
		Storage:         caps,
	}
	mgr, err := cluster.NewManager(env.Net, spec)
	if err != nil {
		return nil, err
	}
	dfs, err := storage.NewDFS(storage.DFSConfig{
		Chunkservers:     cfg.Chunkservers,
		Replication:      3,
		ChunkSize:        1 << 20,
		ServerCapacities: caps,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		env:         env,
		cfg:         cfg,
		mgr:         mgr,
		dfs:         dfs,
		taxes:       platform.TaxTablesFor(taxonomy.BigTable),
		rng:         stats.NewRNG(cfg.Seed),
		downServers: map[int]bool{},
		partitioned: map[int]bool{},
	}
	db.zipf = stats.NewZipf(db.rng.Fork(), cfg.RowsPerTablet, 1.1)
	db.initGate()
	db.registerClassifier()
	db.buildRecipes()
	if err := db.load(); err != nil {
		return nil, err
	}
	db.enableObs(env.Obs)
	return db, nil
}

// enableObs registers the deployment's series with the environment's
// observability plane. A nil registry leaves all handles nil, so every
// record site is a single-branch no-op.
func (db *DB) enableObs(r *obs.Registry) {
	if r == nil {
		return
	}
	db.dfs.EnableMetrics(r)
	db.mMinorCompactions = r.Counter("bigtable.compactions.minor")
	db.mMajorCompactions = r.Counter("bigtable.compactions.major")
	db.mTabletMoves = r.Counter("bigtable.tablet.moves")
	db.mRecoveries = r.Counter("bigtable.recoveries")
	db.mGetLat = r.Histogram("bigtable.get.latency")
	db.mPutLat = r.Histogram("bigtable.put.latency")
	db.enableGateObs(r)
}

func (db *DB) registerClassifier() {
	c := db.env.Prof.Classifier()
	c.Register("bigtable.read.", taxonomy.Read)
	c.Register("bigtable.write.", taxonomy.Write)
	c.Register("bigtable.consensus.", taxonomy.Consensus)
	c.Register("bigtable.query.", taxonomy.Query)
	c.Register("bigtable.compaction.", taxonomy.Compaction)
	c.Register("bigtable.misc.", taxonomy.MiscCore)
}

func (db *DB) buildRecipes() {
	cc := platform.PaperMicro(taxonomy.BigTable, taxonomy.CoreCompute)
	mk := func(budget time.Duration, split platform.Split) platform.Recipe {
		micros := platform.MicroFor(cc, split.Keys()...)
		r := platform.BuildRecipe(budget, split, micros)
		dct, st := platform.TaxBudgets(taxonomy.BigTable, float64(budget))
		return append(r, db.taxes.TaxRecipe(time.Duration(dct), time.Duration(st))...)
	}
	db.getRecipe = mk(getCoreBudget, platform.Split{
		"bigtable.read.Seek": 0.70, "bigtable.misc.Bloom": 0.15, "bigtable.runtime.Glue": 0.15,
	})
	db.putRecipe = mk(putCoreBudget, platform.Split{
		"bigtable.write.MemInsert": 0.45, "bigtable.consensus.LogAck": 0.25,
		"bigtable.misc.Bloom": 0.15, "bigtable.runtime.Glue": 0.15,
	})
	db.scanRecipe = mk(scanCoreBudget, platform.Split{
		"bigtable.query.ScanMerge": 0.45, "bigtable.read.Seek": 0.25,
		"bigtable.misc.Bloom": 0.15, "bigtable.runtime.Glue": 0.15,
	})
	db.minorRecipe = mk(minorCoreBudget, platform.Split{
		"bigtable.compaction.Flush": 0.75, "bigtable.misc.Bloom": 0.12, "bigtable.runtime.Glue": 0.13,
	})
	db.majorRecipe = mk(majorCoreBudget, platform.Split{
		"bigtable.compaction.Merge": 0.75, "bigtable.misc.Bloom": 0.12, "bigtable.runtime.Glue": 0.13,
	})
}

// load places tablets on servers and bootstraps a base SSTable per tablet.
func (db *DB) load() error {
	machines := db.mgr.Machines()
	for t := 0; t < db.cfg.Tablets; t++ {
		tab := &tablet{
			id:        t,
			server:    machines[t%len(machines)],
			serverIdx: t % len(machines),
			mem:       map[string][]byte{},
			nextSeq:   1,
			flushDone: map[int64]bool{},
		}
		base := &sstable{
			file: fmt.Sprintf("bt/tablet%d/base", t),
			data: make(map[string][]byte, db.cfg.RowsPerTablet),
		}
		// One slab per tablet holds every bootstrap value; each row gets a
		// capped window of it, so appending to one row never spills into
		// the next.
		n := int(db.cfg.ValueBytes)
		slab := make([]byte, db.cfg.RowsPerTablet*n)
		for i := 0; i < db.cfg.RowsPerTablet; i++ {
			val := slab[i*n : (i+1)*n : (i+1)*n]
			bootstrapValue(val, t, i)
			base.data[rowKey(t, i)] = val
		}
		base.seal(&db.sealBuf)
		if _, err := db.dfs.Create(base.file, base.bytes); err != nil {
			return err
		}
		tab.ssts = []*sstable{base}
		tab.nextSST = 1
		db.tablets = append(db.tablets, tab)
	}
	return nil
}

// rowKey names row `row` of tablet t: "t<tablet>/k<row>".
func rowKey(tablet, row int) string {
	var buf [24]byte
	b := append(buf[:0], 't')
	b = strconv.AppendInt(b, int64(tablet), 10)
	b = append(b, "/k"...)
	b = strconv.AppendInt(b, int64(row), 10)
	return string(b)
}

// bootstrapValue fills val with row i of tablet t's initial content: a
// deterministic first byte (tests and scan predicates rely on it) followed
// by incompressible per-row noise — bootstrap data models already-compressed
// historical payloads, so base SSTables do not shrink further under block
// compression.
func bootstrapValue(val []byte, t, i int) {
	if len(val) == 0 {
		return
	}
	val[0] = byte(uint64(t)*11 + uint64(i)*17)
	// The noise is one LCG stream, byte j taken from state j. Four cursors
	// on consecutive states, each jumping four states per step, produce the
	// same bytes through four independent multiply chains.
	x0 := (uint64(t)*2654435761+uint64(i)*40503+12345)*lcgA + lcgC
	x1 := x0*lcgA + lcgC
	x2 := x1*lcgA + lcgC
	x3 := x2*lcgA + lcgC
	j := 1
	for ; j+4 <= len(val); j += 4 {
		v := val[j : j+4 : j+4]
		v[0], v[1], v[2], v[3] = byte(x0>>33), byte(x1>>33), byte(x2>>33), byte(x3>>33)
		x0 = x0*lcgA4 + lcgC4
		x1 = x1*lcgA4 + lcgC4
		x2 = x2*lcgA4 + lcgC4
		x3 = x3*lcgA4 + lcgC4
	}
	for _, x := range [...]uint64{x0, x1, x2} {
		if j == len(val) {
			break
		}
		val[j] = byte(x >> 33)
		j++
	}
}

// The bootstrap noise LCG, x -> lcgA*x + lcgC, and its four-step jump
// x -> lcgA4*x + lcgC4 (two squarings of the step, mod 2^64).
const (
	lcgA  = 6364136223846793005
	lcgC  = 1442695040888963407
	lcgA2 = lcgA * lcgA % (1 << 64)
	lcgC2 = lcgC * (lcgA + 1) % (1 << 64)
	lcgA4 = lcgA2 * lcgA2 % (1 << 64)
	lcgC4 = lcgC2 * (lcgA2 + 1) % (1 << 64)
)

// NumTablets returns the tablet count.
func (db *DB) NumTablets() int { return db.cfg.Tablets }

// RowsPerTablet returns the rows per tablet.
func (db *DB) RowsPerTablet() int { return db.cfg.RowsPerTablet }

// PickRow draws a Zipf-popular row index.
func (db *DB) PickRow() int { return db.zipf.Next() }

// Machines exposes the tablet-server fleet.
func (db *DB) Machines() []*cluster.Machine { return db.mgr.Machines() }

// DFS exposes the backing file system (for inventory and stats).
func (db *DB) DFS() *storage.DFS { return db.dfs }

// SSTableCount returns the number of live SSTables for a tablet (tests).
func (db *DB) SSTableCount(t int) int { return len(db.tablets[t].ssts) }

// waitIfCompacting blocks the op while the tablet's major compaction runs,
// annotating the wait as remote work (compaction happens in remote storage).
func (db *DB) waitIfCompacting(p *sim.Proc, tr *trace.Trace, tab *tablet) {
	for tab.compacting != nil && !tab.compacting.Fired() {
		start := p.Now()
		p.Wait(tab.compacting)
		platform.AnnotateRemote(tr, start, p.Now())
	}
	// A tablet freshly reassigned after a server crash is unavailable until
	// its commit-log replay completes; the wait is remote work too.
	for tab.recovering != nil && !tab.recovering.Fired() {
		start := p.Now()
		p.Wait(tab.recovering)
		platform.AnnotateRemote(tr, start, p.Now())
	}
}

// ErrPartitioned reports an operation refused because the tablet's server is
// partitioned away from the cluster and recovery is off (or has nowhere to
// move the tablet). The failure is definite: nothing executed.
var ErrPartitioned = fmt.Errorf("bigtable: tablet server partitioned")

// partitionCheck gates an operation on the tablet's server connectivity.
// With the BrokenPartitionWrites fixture the isolated server (wrongly) keeps
// serving; otherwise ops against a partitioned server fail definite —
// PartitionRecovery moves tablets off partitioned servers at cut time, so
// under recovery this only fires in the window before reassignment.
func (db *DB) partitionCheck(tab *tablet) error {
	if db.partitioned[tab.serverIdx] && !db.cfg.BrokenPartitionWrites {
		return fmt.Errorf("%w: server %d owns tablet %d", ErrPartitioned, tab.serverIdx, tab.id)
	}
	return nil
}

// get is the un-recorded implementation of Get.
func (db *DB) get(p *sim.Proc, tr *trace.Trace, t, row int) ([]byte, error) {
	if t < 0 || t >= len(db.tablets) {
		return nil, fmt.Errorf("bigtable: tablet %d out of range", t)
	}
	tab := db.tablets[t]
	if err := db.partitionCheck(tab); err != nil {
		return nil, err
	}
	db.waitIfCompacting(p, tr, tab)
	db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, tr, db.getRecipe)
	key := rowKey(t, row)
	if v, ok := tab.mem[key]; ok {
		db.Gets++
		return v, nil
	}
	for _, s := range tab.imm {
		if v, ok := s.data[key]; ok {
			db.Gets++
			return v, nil
		}
	}
	// Probe SSTables newest-first; each probe reads one 16 KiB block. The
	// per-table Bloom filter skips tables that cannot contain the key.
	for _, s := range tab.ssts {
		if s.filter != nil && !s.filter.MayContain(key) {
			db.BloomSkips++
			continue
		}
		v, ok := s.data[key]
		ioStart := p.Now()
		blockOff := int64(0)
		if s.bytes > 16<<10 {
			blockOff = int64(db.rng.Intn(int(s.bytes>>14))) << 14
		}
		blockLen := min64(16<<10, s.bytes)
		d, _, err := db.dfs.Read(s.file, blockOff, blockLen)
		if err != nil {
			return nil, err
		}
		p.Sleep(d)
		platform.AnnotateIO(tr, ioStart, p.Now())
		if ok {
			db.Gets++
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", storage.ErrNotFound, key)
}

// put is the un-recorded implementation of Put.
func (db *DB) put(p *sim.Proc, tr *trace.Trace, t, row int, value []byte) error {
	if t < 0 || t >= len(db.tablets) {
		return fmt.Errorf("bigtable: tablet %d out of range", t)
	}
	tab := db.tablets[t]
	if err := db.partitionCheck(tab); err != nil {
		return err
	}
	db.waitIfCompacting(p, tr, tab)
	db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, tr, db.putRecipe)

	key := rowKey(t, row)
	cp := make([]byte, len(value))
	copy(cp, value)
	if db.partitioned[tab.serverIdx] {
		// BROKEN (fixture, BrokenPartitionWrites): the isolated server cannot
		// reach the shared commit log but acknowledges the write from its
		// local memtable anyway. The heal-time fencing rebuild replays only
		// the log, so this acknowledged write is doomed to vanish.
		old := int64(len(tab.mem[key]))
		tab.mem[key] = cp
		tab.memSize += int64(len(cp)) - old
		db.Puts++
		return nil
	}

	// Commit-log append: replicated write into the shared storage layer,
	// failing over to the next live chunkserver if the tablet's usual log
	// server is down.
	ioStart := p.Now()
	logBytes := int64(len(value)) + 64
	p.Sleep(db.logServer(tab).RawAccess(storage.SSD, logBytes, true))
	platform.AnnotateIO(tr, ioStart, p.Now())

	// The record and the memtable insert land atomically after the log IO
	// (the kernel only switches procs at park points), so a crash either
	// sees both or neither.
	seq := tab.nextSeq
	tab.nextSeq++
	tab.log = append(tab.log, logRec{seq: seq, key: key, value: cp})
	tab.logBytes += logBytes
	old := int64(len(tab.mem[key]))
	tab.mem[key] = cp
	tab.memSize += int64(len(cp)) - old
	tab.memPuts++
	db.Puts++
	if tab.memPuts >= db.cfg.FlushEvery {
		db.flush(tab)
	}
	return nil
}

// Scan merges rows [start, start+ScanRows) across memtable and SSTables and
// returns the count matching a real predicate (first byte odd).
func (db *DB) Scan(p *sim.Proc, tr *trace.Trace, t, start int) (int, error) {
	release, admitErr := db.admitOp(t)
	if admitErr != nil {
		return 0, admitErr
	}
	defer release()
	if t < 0 || t >= len(db.tablets) {
		return 0, fmt.Errorf("bigtable: tablet %d out of range", t)
	}
	tab := db.tablets[t]
	if err := db.partitionCheck(tab); err != nil {
		return 0, err
	}
	db.waitIfCompacting(p, tr, tab)
	db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, tr, db.scanRecipe)

	// Stream the scanned range from the base sstable: the logical range is
	// scaled down by the table's compression ratio to the on-DFS bytes.
	ioStart := p.Now()
	base := tab.ssts[len(tab.ssts)-1]
	scanBytes := int64(db.cfg.ScanRows) * db.cfg.ValueBytes
	if base.rawBytes > 0 {
		scanBytes = scanBytes * base.bytes / base.rawBytes
	}
	off := int64(start%db.cfg.RowsPerTablet) * db.cfg.ValueBytes
	if off+scanBytes > base.bytes {
		off = 0
	}
	d, _, err := db.dfs.Read(base.file, off, min64(scanBytes, base.bytes))
	if err != nil {
		return 0, err
	}
	p.Sleep(d)
	platform.AnnotateIO(tr, ioStart, p.Now())

	matched := 0
	for i := 0; i < db.cfg.ScanRows; i++ {
		v := db.lookup(tab, rowKey(t, (start+i)%db.cfg.RowsPerTablet))
		if len(v) > 0 && v[0]%2 == 1 {
			matched++
		}
	}
	db.Scans++
	return matched, nil
}

// lookup resolves a key through the merge hierarchy without IO (used by
// scans after the range has been streamed).
func (db *DB) lookup(tab *tablet, key string) []byte {
	if v, ok := tab.mem[key]; ok {
		return v
	}
	for _, s := range tab.imm {
		if v, ok := s.data[key]; ok {
			return v
		}
	}
	for _, s := range tab.ssts {
		if v, ok := s.data[key]; ok {
			return v
		}
	}
	return nil
}

// flush snapshots the memtable and writes it to the DFS as a new SSTable in
// the background (minor compaction). Serving continues from the immutable
// snapshot meanwhile. The commit log is truncated only once the flush is
// durable — truncating at snapshot time would lose the snapshotted writes if
// the server crashed mid-flush (the brokenLogTruncateEarly fixture).
func (db *DB) flush(tab *tablet) {
	snap := &sstable{
		file: fmt.Sprintf("bt/tablet%d/sst%d", tab.id, tab.nextSST),
		data: tab.mem,
	}
	snapSeq := tab.nextSeq - 1
	epoch := tab.epoch
	tab.nextSST++
	tab.mem = map[string][]byte{}
	tab.memSize = 0
	tab.memPuts = 0
	tab.imm = append([]*sstable{snap}, tab.imm...)
	tab.flushPending = append(tab.flushPending, snapSeq)
	if db.brokenLogTruncateEarly {
		// BROKEN (fixture): drop the snapshotted records before they are
		// durable.
		db.truncateLog(tab, snapSeq)
	}

	db.env.K.Go("bt-minor-compaction", func(p *sim.Proc) {
		db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, nil, db.minorRecipe)
		snap.seal(&db.sealBuf) // real block compression + Bloom filter
		db.CompressedBytes += snap.bytes
		db.RawBytes += snap.rawBytes
		if _, err := db.dfs.Create(snap.file, snap.bytes); err != nil {
			panic(fmt.Sprintf("bigtable: flush: %v", err))
		}
		if tab.epoch != epoch {
			// The tablet was reassigned mid-flush: the crash already rebuilt
			// this snapshot's writes from the commit log on the new server, so
			// promoting the orphan would resurrect a stale epoch's state.
			db.dfs.Delete(snap.file)
			return
		}
		// Promote snapshot to a real SSTable.
		for i, s := range tab.imm {
			if s == snap {
				tab.imm = append(tab.imm[:i], tab.imm[i+1:]...)
				break
			}
		}
		tab.ssts = append([]*sstable{snap}, tab.ssts...)
		tab.flushes++
		db.MinorCompactions++
		db.mMinorCompactions.Inc()
		// The snapshot is durable: advance durableSeq over the completed
		// prefix of pending flushes (they can finish out of order) and
		// truncate the replay log up to it.
		tab.flushDone[snapSeq] = true
		for len(tab.flushPending) > 0 && tab.flushDone[tab.flushPending[0]] {
			seq := tab.flushPending[0]
			delete(tab.flushDone, seq)
			tab.flushPending = tab.flushPending[1:]
			if seq > tab.durableSeq {
				tab.durableSeq = seq
			}
			if !db.brokenReplayDup {
				db.truncateLog(tab, seq)
			}
		}
		if tab.flushes%db.cfg.MajorEvery == 0 && tab.compacting == nil {
			db.major(tab)
		}
	})
}

// truncateLog drops commit-log records with seq <= upto.
func (db *DB) truncateLog(tab *tablet, upto int64) {
	i := 0
	for i < len(tab.log) && tab.log[i].seq <= upto {
		tab.logBytes -= int64(len(tab.log[i].value)) + 64
		i++
	}
	tab.log = tab.log[i:]
}

// major merges a tablet's SSTables into one in remote storage, blocking the
// tablet's operations until it completes. The input set is snapshotted up
// front: a minor compaction already in flight when the major starts can
// complete mid-merge and prepend a new SSTable, which must survive —
// replacing the live list wholesale would silently drop its acknowledged
// writes.
func (db *DB) major(tab *tablet) {
	tab.compacting = sim.NewSignal(db.env.K)
	inputs := append([]*sstable(nil), tab.ssts...)
	db.env.K.Go("bt-major-compaction", func(p *sim.Proc) {
		merged := &sstable{
			file: fmt.Sprintf("bt/tablet%d/sst%d", tab.id, tab.nextSST),
			data: map[string][]byte{},
		}
		tab.nextSST++
		// Merge oldest-to-newest so newer values win.
		var readTime time.Duration
		for i := len(inputs) - 1; i >= 0; i-- {
			s := inputs[i]
			d, _, err := db.dfs.Read(s.file, 0, s.bytes)
			if err != nil {
				panic(fmt.Sprintf("bigtable: major read: %v", err))
			}
			readTime += d
			for k, v := range s.data {
				merged.data[k] = v
			}
		}
		p.Sleep(readTime)
		db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, nil, db.majorRecipe)
		merged.seal(&db.sealBuf)
		if _, err := db.dfs.Create(merged.file, merged.bytes); err != nil {
			panic(fmt.Sprintf("bigtable: major write: %v", err))
		}
		for _, s := range inputs {
			if err := db.dfs.Delete(s.file); err != nil {
				panic(fmt.Sprintf("bigtable: major delete: %v", err))
			}
		}
		// Keep any SSTables flushed since the merge started (newest first),
		// with the merged table as the new oldest.
		inputSet := map[*sstable]bool{}
		for _, s := range inputs {
			inputSet[s] = true
		}
		var kept []*sstable
		for _, s := range tab.ssts {
			if !inputSet[s] {
				kept = append(kept, s)
			}
		}
		tab.ssts = append(kept, merged)
		db.MajorCompactions++
		db.mMajorCompactions.Inc()
		tab.compacting.Fire()
		tab.compacting = nil
	})
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// logServer returns the chunkserver holding the tablet's commit log,
// failing over to the next live one when it is down (all down: fall back to
// the home server — the write stalls on nothing, modeling a buffered log).
func (db *DB) logServer(tab *tablet) *storage.TieredStore {
	home := tab.id % db.cfg.Chunkservers
	for off := 0; off < db.cfg.Chunkservers; off++ {
		i := (home + off) % db.cfg.Chunkservers
		if !db.dfs.ServerDown(i) {
			return db.dfs.Servers()[i]
		}
	}
	return db.dfs.Servers()[home]
}

// TabletServer returns the machine index currently serving tablet t.
func (db *DB) TabletServer(t int) (int, error) {
	if t < 0 || t >= len(db.tablets) {
		return 0, fmt.Errorf("bigtable: tablet %d out of range", t)
	}
	return db.tablets[t].serverIdx, nil
}

// TabletServerDown reports whether tablet server i is failed.
func (db *DB) TabletServerDown(i int) bool { return db.downServers[i] }

// FailTabletServer injects a tablet-server crash: the server's memtables are
// lost with it, so every tablet it owned is reassigned round-robin to the
// surviving servers, and each reassigned tablet replays its un-flushed
// commit log from the DFS before serving again (ops arriving mid-recovery
// block on the replay, annotated as remote work). Durable state — SSTables
// and the commit log — lives in the DFS and survives, so no acknowledged
// write is lost. Fails if it would take down the last live server.
func (db *DB) FailTabletServer(i int) error {
	machines := db.mgr.Machines()
	if i < 0 || i >= len(machines) {
		return fmt.Errorf("bigtable: tablet server %d out of range", i)
	}
	if db.downServers[i] {
		return nil
	}
	if len(db.liveServers(i)) == 0 {
		return fmt.Errorf("bigtable: cannot fail server %d: no live servers remain", i)
	}
	db.downServers[i] = true
	db.reassignFrom(i)
	return nil
}

// liveServers returns the machine indices that are neither down nor
// partitioned, excluding `except` — the servers the master can actually hand
// tablets to.
func (db *DB) liveServers(except int) []int {
	var live []int
	for m := range db.mgr.Machines() {
		if m != except && !db.downServers[m] && !db.partitioned[m] {
			live = append(live, m)
		}
	}
	return live
}

// reassignFrom moves every tablet owned by server i to the reachable live
// servers, rebuilding each from its commit log (crash semantics: epoch
// fencing aborts the old owner's in-flight flushes, the replay dedup check
// flags records already durable). Tablets stay put if no server can take
// them.
func (db *DB) reassignFrom(i int) {
	live := db.liveServers(i)
	if len(live) == 0 {
		return
	}
	machines := db.mgr.Machines()
	for _, tab := range db.tablets {
		if tab.serverIdx != i {
			continue
		}
		ni := live[tab.id%len(live)]
		tab.serverIdx = ni
		tab.server = machines[ni]
		db.Reassignments++
		db.mTabletMoves.Inc()
		db.rebuildFromLog(tab)
		db.recoverTablet(tab)
	}
}

// PartitionTabletServer cuts tablet server i off from the cluster: the
// master, DFS and clients cannot reach it (and it cannot reach them). With
// PartitionRecovery the master immediately reassigns its tablets to reachable
// servers through the commit-log replay path; otherwise the tablets ride out
// the partition unavailable. The BrokenPartitionWrites fixture instead lets
// the isolated server keep acknowledging writes (see put).
func (db *DB) PartitionTabletServer(i int) error {
	if i < 0 || i >= len(db.mgr.Machines()) {
		return fmt.Errorf("bigtable: tablet server %d out of range", i)
	}
	if db.partitioned[i] {
		return nil
	}
	db.partitioned[i] = true
	if db.cfg.PartitionRecovery && !db.cfg.BrokenPartitionWrites {
		db.reassignFrom(i)
	}
	return nil
}

// HealTabletServer reconnects a partitioned tablet server. Under the
// BrokenPartitionWrites fixture the master fences the returning server by
// rebuilding its tablets from the shared commit log — the split-brain
// resolution that discards the isolated memtable, including any writes the
// server wrongly acknowledged without logging them.
func (db *DB) HealTabletServer(i int) error {
	if i < 0 || i >= len(db.mgr.Machines()) {
		return fmt.Errorf("bigtable: tablet server %d out of range", i)
	}
	if !db.partitioned[i] {
		return nil
	}
	delete(db.partitioned, i)
	if db.cfg.BrokenPartitionWrites {
		for _, tab := range db.tablets {
			if tab.serverIdx == i {
				db.rebuildFromLog(tab)
				db.recoverTablet(tab)
			}
		}
	}
	return nil
}

// TabletServerPartitioned reports whether tablet server i is partitioned.
func (db *DB) TabletServerPartitioned(i int) bool { return db.partitioned[i] }

// rebuildFromLog applies crash semantics to a reassigned tablet: the crashed
// server's volatile state — the active memtable and any still-flushing
// snapshots — is lost, and the new server's memtable is rebuilt by replaying
// the commit log in sequence order. SSTables live in the DFS and survive.
// The rebuild itself is instantaneous state surgery; recoverTablet separately
// burns the replay's IO and CPU time while the tablet blocks.
func (db *DB) rebuildFromLog(tab *tablet) {
	tab.epoch++ // aborts in-flight flush promotions from the dead server
	tab.mem = map[string][]byte{}
	tab.memSize = 0
	tab.imm = nil
	tab.flushPending = nil
	tab.flushDone = map[int64]bool{}
	dups := 0
	for _, rec := range tab.log {
		if rec.seq <= tab.durableSeq {
			// Replaying a record that is already durable in an SSTable: for
			// last-writer-wins puts the replay happens to be idempotent, but
			// it is a protocol violation (re-applied increments or appends
			// would corrupt state), so it is flagged structurally.
			dups++
		}
		old := int64(len(tab.mem[rec.key]))
		tab.mem[rec.key] = rec.value
		tab.memSize += int64(len(rec.value)) - old
	}
	tab.memPuts = len(tab.log)
	if dups > 0 {
		db.ReplayDups += dups
		if db.rec != nil {
			db.rec.Violate("duplicate-replay", fmt.Sprintf("t%d", tab.id),
				"tablet %d replayed %d commit-log records already durable (durableSeq %d)",
				tab.id, dups, tab.durableSeq)
		}
	}
}

// RecoverTabletServer brings a failed tablet server back into the live set.
// Tablets stay where they were reassigned (like production, rebalancing is a
// separate concern); the server is simply eligible for future reassignments.
func (db *DB) RecoverTabletServer(i int) error {
	if i < 0 || i >= len(db.mgr.Machines()) {
		return fmt.Errorf("bigtable: tablet server %d out of range", i)
	}
	delete(db.downServers, i)
	return nil
}

// recoverTablet replays the tablet's un-flushed commit log on its new server:
// re-read the log bytes from the DFS chunkserver and burn the minor-
// compaction recipe to rebuild the memtable. The tablet blocks ops until the
// replay finishes.
func (db *DB) recoverTablet(tab *tablet) {
	if tab.recovering != nil && !tab.recovering.Fired() {
		return
	}
	sig := sim.NewSignal(db.env.K)
	tab.recovering = sig
	replay := tab.logBytes
	db.env.K.Go("bt-log-recovery", func(p *sim.Proc) {
		if replay > 0 {
			p.Sleep(db.logServer(tab).RawAccess(storage.SSD, replay, false))
		}
		db.env.ExecRecipe(p, taxonomy.BigTable, tab.server.Node, nil, db.minorRecipe)
		db.Recoveries++
		db.mRecoveries.Inc()
		sig.Fire()
		if tab.recovering == sig {
			tab.recovering = nil
		}
	})
}
