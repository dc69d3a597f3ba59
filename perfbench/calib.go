package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is shared: its speed drifts within
// seconds by a third or more, CPU time included, because other tenants
// contend for the cores, caches and memory. Wall time alone would then
// measure the neighbours as much as the engine. So a run also times a
// fixed probe of its own, which never touches the engine, around every
// set-up and between short slices of each timed window, and scales every
// time it measures by how fast the probe ran just before and after: the
// time metrics read as times on the machine the benchmark was sized on, at
// its usual speed.
//
// The probe runs four small jobs, each on both CPUs at once. Each stresses
// something the engine's statements spend their time on: a walk along a
// random cycle through 16 MiB (cache and TLB misses), a sort of integers
// (branches), lookups in a string-keyed map (hashing) and a sort of records
// by string key (pointer chasing and comparisons, as in an index build).
// Over repeated windows of identical engine work, their combination
// followed the engine's wall time more closely than any one of them.

// probeJob is one of the probe's jobs with its usual time on the reference
// machine, a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest, when quiet.
type probeJob struct {
	reference time.Duration
	run       func(c *calibrator, g int)
}

var probeJobs = []probeJob{
	{1350 * time.Microsecond, (*calibrator).walk},
	{316 * time.Microsecond, (*calibrator).sortInts},
	{856 * time.Microsecond, (*calibrator).lookup},
	{930 * time.Microsecond, (*calibrator).sortRecords},
}

const (
	calibTableLen = 1 << 21 // 16 MiB of int64: larger than L2, in L3
	calibWalk     = 1 << 13 // dependent loads through the table per walk
	calibSort     = 1 << 12 // integers sorted per sort
	calibKeys     = 1 << 15 // string keys in the map and record pool
	calibLookups  = 1 << 13 // map lookups per job
	calibRecords  = 1 << 12 // records sorted per job
	calibReps     = 2       // runs of each job per goroutine and probe
	calibCPUs     = 2       // goroutines running the jobs at once: one per CPU
)

// record is what the record sort orders: a string key and a payload.
type record struct {
	key string
	val int64
}

// calibrator runs the probes of one run. The walk's table lives outside the
// Go heap and all scratch space is reused, so a probe allocates only its
// goroutines; the keys, map and record pool are about 3 MB of heap, the
// same in every run.
type calibrator struct {
	mem     []byte
	table   []int64
	keys    []string
	index   map[string]int
	pool    []record
	cursor  [calibCPUs]int64
	ints    [calibCPUs][]int64
	records [calibCPUs][]record
	sink    [calibCPUs]int64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibTableLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibrator{mem: mem, table: unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), calibTableLen)}
	// A random single cycle (Sattolo's shuffle): walking it from any slot
	// visits slots in an order the prefetcher cannot guess.
	r := rand.New(rand.NewSource(1))
	for i := range c.table {
		c.table[i] = int64(i)
	}
	for i := len(c.table) - 1; i > 0; i-- {
		j := r.Intn(i)
		c.table[i], c.table[j] = c.table[j], c.table[i]
	}
	c.index = make(map[string]int, calibKeys)
	for i := range calibKeys {
		k := fmt.Sprintf("key-%08d-%s", r.Intn(100000000), strings.Repeat("x", i%7))
		c.keys = append(c.keys, k)
		c.index[k] = i
		c.pool = append(c.pool, record{k, int64(i)})
	}
	for g := range calibCPUs {
		c.cursor[g] = int64(g)
		c.ints[g] = make([]int64, calibSort)
		c.records[g] = make([]record, calibRecords)
	}
	return c, nil
}

// close unmaps the table.
func (c *calibrator) close() {
	_ = syscall.Munmap(c.mem) // the mapping is ours and still valid
	c.table = nil
}

// probe runs every job calibReps times on each of calibCPUs goroutines at
// once, so that both of the machine's CPUs are sampled, and returns the
// machine's slowdown: the geometric mean over the jobs of each job's mean
// time over its reference. Above 1 the machine runs slower than usual.
func (c *calibrator) probe() float64 {
	var logSum float64
	for _, job := range probeJobs {
		var times [calibCPUs]time.Duration
		var wg sync.WaitGroup
		for g := range calibCPUs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				for range calibReps {
					job.run(c, g)
				}
				times[g] = time.Since(start)
			}()
		}
		wg.Wait()
		var total time.Duration
		for _, t := range times {
			total += t
		}
		mean := float64(total) / (calibCPUs * calibReps)
		logSum += math.Log(mean / float64(job.reference))
	}
	return math.Exp(logSum / float64(len(probeJobs)))
}

// probes returns the mean slowdown of n probes in a row.
func (c *calibrator) probes(n int) float64 {
	var sum float64
	for range n {
		sum += c.probe()
	}
	return sum / float64(n)
}

// walk follows the random cycle for calibWalk steps.
func (c *calibrator) walk(g int) {
	k := c.cursor[g]
	for range calibWalk {
		k = c.table[k]
	}
	c.cursor[g] = k
}

// sortInts sorts a copy of a stretch of the table.
func (c *calibrator) sortInts(g int) {
	s := c.ints[g]
	copy(s, c.table[c.cursor[g]%(calibTableLen-calibSort):])
	slices.Sort(s)
}

// lookup looks keys up in the string-keyed map.
func (c *calibrator) lookup(g int) {
	n := 0
	for i := range calibLookups {
		n += c.index[c.keys[(i*131+g)%calibKeys]]
	}
	c.sink[g] += int64(n)
}

// sortRecords sorts a copy of a stretch of the record pool by key.
func (c *calibrator) sortRecords(g int) {
	r := c.records[g]
	copy(r, c.pool[int(c.cursor[g]%(calibKeys-calibRecords)):])
	slices.SortFunc(r, func(a, b record) int { return strings.Compare(a.key, b.key) })
}
