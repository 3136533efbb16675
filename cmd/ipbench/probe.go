package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Correcting times for a shared host.
//
// The benchmark runs on virtual CPUs whose caches, memory bandwidth and
// physical cores are shared with other tenants. While those tenants are
// busy, a cache-missing access costs up to three times as long and
// arithmetic up to a third longer, in spells lasting seconds to minutes. A
// spell can cover most of a run, so medians over the run cannot remove it:
// runs of one commit differed by up to 2× in throughput. Every measured
// round is therefore bracketed by two fixed probes, one memory-bound and one
// arithmetic, and its times are corrected by how slowly they ran:
//
//	time × (memQuiet / mem)^memSensitivity × (cpuQuiet / cpu)^cpuSensitivity
//
// The sensitivities were chosen over five sets of ten runs of every workload,
// on a host whose load changed between sets. Fitted slopes of log
// throughput against log probe time differed by workload and by set, so the
// workloads share the one fixed pair with the smallest worst-case spread and
// drift between sets: arithmetic slowdown, a busy sibling core, slows every
// workload about one to one, and memory slowdown adds a weaker term. The
// pair is a part of the benchmark, so a parent and a change are corrected
// alike.
const (
	memSensitivity = 0.3
	cpuSensitivity = 1.0
)

// memQuiet and cpuQuiet are the probes' times on a quiet host of the 2-vCPU
// kind the baseline was recorded on; they only set the scale of corrected
// values.
const (
	memQuiet = 5 * time.Millisecond
	cpuQuiet = 4 * time.Millisecond
)

// probeBytes is the memory probe's buffer size: four times a core's 2 MiB
// L2 cache, so its accesses go to the shared last-level cache and memory.
const probeBytes = 8 << 20

// hostProbe times a fixed pseudo-random read-modify-write walk over its
// buffer, and a fixed arithmetic loop that touches no memory. The buffer is
// mapped outside the Go heap, so it changes neither the collector's pacing
// nor the runtime memory a round reports. A workload with two workers is
// probed on two goroutines at once, each on half the buffer, and the slower
// one counts: the workers meet at barriers, so the slower CPU sets the
// pace.
type hostProbe struct {
	mem []byte
	buf []uint64
}

// hostSpeed is what the probes measured around one round.
type hostSpeed struct{ mem, cpu time.Duration }

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map probe buffer: %w", err)
	}
	p := &hostProbe{mem: mem, buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeBytes/8)}
	p.run(1) // fault the buffer in
	return p, nil
}

func (p *hostProbe) close() error { return syscall.Munmap(p.mem) }

// run probes on workers goroutines at once and returns the slowest times.
func (p *hostProbe) run(workers int) hostSpeed {
	if workers == 1 {
		return p.walk(p.buf)
	}
	speeds := make([]hostSpeed, workers)
	part := len(p.buf) / workers
	var wg sync.WaitGroup
	for i := range speeds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			speeds[i] = p.walk(p.buf[i*part : (i+1)*part])
		}(i)
	}
	wg.Wait()
	var s hostSpeed
	for _, v := range speeds {
		s.mem, s.cpu = max(s.mem, v.mem), max(s.cpu, v.cpu)
	}
	return s
}

// walk times the two probe loops over buf, whose length is a power of two.
func (p *hostProbe) walk(buf []uint64) hostSpeed {
	x := uint64(88172645463325252)
	mask := uint64(len(buf) - 1)
	t0 := time.Now()
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&mask] += x
	}
	t1 := time.Now()
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t2 := time.Now()
	buf[0] += x // keep the loops' result live
	return hostSpeed{mem: t1.Sub(t0), cpu: t2.Sub(t1)}
}

func (s hostSpeed) mean(o hostSpeed) hostSpeed {
	return hostSpeed{mem: (s.mem + o.mem) / 2, cpu: (s.cpu + o.cpu) / 2}
}

// quietFactor is what a time measured at this host speed multiplies by to
// estimate the time on a quiet host.
func (s hostSpeed) quietFactor() float64 {
	return math.Pow(memQuiet.Seconds()/s.mem.Seconds(), memSensitivity) *
		math.Pow(cpuQuiet.Seconds()/s.cpu.Seconds(), cpuSensitivity)
}

// memSampler records the largest memory footprint of the Go runtime — what
// it has mapped less what it has released to the OS — over a stretch of
// work, sampling every millisecond. A round's peak is steadier than the
// process's peak RSS, which one collector overshoot in a whole run sets.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64
}

var footprintSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func footprint(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func startSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := append([]metrics.Sample(nil), footprintSamples...)
	m.peak = footprint(s)
	go func() {
		defer close(m.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.peak = max(m.peak, footprint(s))
			}
		}
	}()
	return m
}

// end stops the sampler and returns the peak footprint, the last sample
// taken after the work.
func (m *memSampler) end() uint64 {
	close(m.stop)
	<-m.done
	return max(m.peak, footprint(append([]metrics.Sample(nil), footprintSamples...)))
}
