package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on is a few virtual CPUs of a shared host,
// and two things about it move a measurement by more than any change to
// ipscope will:
//
//   - Where the kernel puts the two ends of a connection. On one virtual
//     CPU a wake-up is a context switch (a 64-byte TCP ping-pong takes
//     9 us); across two it is an inter-processor interrupt into a halted
//     virtual CPU, which the hypervisor has to schedule first (58 us).
//     Left alone the placement flips between the two every few seconds.
//   - How fast the host runs this guest. The same hot read took 36 us and
//     62 us of wall time, 18 us and 29 us of server CPU, and the same
//     process start 0.79 s and 1.30 s, in runs minutes apart.
//
// The read workloads answer the first by running their timed part on
// one CPU (onOneCPU), and every workload answers the second by carrying
// a yardstick that is standard-library code and nothing else:
//
//   - for requests, the reference server below, a second process that is
//     net/http answering with a fixed body. The timed part alternates
//     short slices against the reference and against the fleet through
//     the same client on the same CPU;
//   - for bulk work (a process loading its dataset, a day being applied
//     and published), computeReference, a fixed decode-count-sort job
//     timed in the harness immediately before the work it is held
//     against.
//
// Every time-like metric is reported at reference speed: the median of
// measured/reference over the run's cycles or events, times the
// reference's frozen nominal value (atReferenceSpeed). The raw medians
// and the references' own are kept in every results file.

// referenceFlag selects the reference-server mode of this binary.
const referenceFlag = "--reference-server"

// referenceBody is what the reference server answers every request
// with: about the size of an ipscope point lookup's JSON.
var referenceBody = []byte(`{"reference":"` + strings.Repeat("0123456789abcdef", 30) + `"}` + "\n")

// referenceServer serves the fixed body on a loopback port of the
// kernel's choosing until it is killed. It logs its address the way
// ipscope-serve does, so the harness finds it the same way.
func referenceServer() int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: reference server: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchmark: reference serving on http://%s\n", ln.Addr())
	length := strconv.Itoa(len(referenceBody))
	err = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", length)
		w.Write(referenceBody) //nolint:errcheck // the client went away
	}))
	fmt.Fprintf(os.Stderr, "benchmark: reference server: %v\n", err)
	return 1
}

// startReference launches the reference server as a child of the
// harness and returns it with its base URL.
func (e *env) startReference() (*proc, string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	p, err := startProc(e.logDir, e.procName("reference"), self, referenceFlag)
	if err != nil {
		return nil, "", err
	}
	base, err := p.logged(reHTTP, startTimeout)
	if err != nil {
		p.kill()
		return nil, "", err
	}
	return p, base, nil
}

// computeReference times the bulk-work yardstick: varint-encode and
// decode 300k pseudo-random integers, count them into a map and sort
// them — the kind of work a server does loading a dataset, in the
// standard library only. It returns milliseconds.
func computeReference() float64 {
	t0 := time.Now()
	const n = 300_000
	buf := make([]byte, 0, n*5)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf = binary.AppendUvarint(buf, x>>40)
	}
	counts := make(map[uint32]uint32, 1024)
	vals := make([]uint32, 0, n)
	for len(buf) > 0 {
		v, k := binary.Uvarint(buf)
		buf = buf[k:]
		vals = append(vals, uint32(v))
		counts[uint32(v)>>4]++
	}
	slices.Sort(vals)
	computeSink = len(counts) + int(vals[n/2])
	return ms(time.Since(t0))
}

// computeSink keeps the compiler from discarding computeReference's work.
var computeSink int

// atReferenceSpeed reduces one quantity measured once per cycle (or
// event) together with its reference: the median of the ratios, scaled
// by the reference's nominal value. A host that runs every cycle k times
// slower, or some cycles slower than others, leaves it where it was.
func atReferenceSpeed(nominal float64, measured, ref []float64) float64 {
	ratios := make([]float64, len(measured))
	for i := range measured {
		ratios[i] = measured[i] / ref[i]
	}
	return nominal * median(ratios)
}

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

func (m *cpuMask) last() int {
	for i := len(m)*64 - 1; i >= 0; i-- {
		if m[i/64]&(1<<(i%64)) != 0 {
			return i
		}
	}
	return -1
}

func affinity(tid int) (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// setAffinity moves every thread of process pid onto m. Threads and
// processes started later inherit it from the thread that starts them.
func setAffinity(pid int, m cpuMask) error {
	// Two scans: a thread created by a not-yet-moved thread during the
	// first is caught by the second.
	for scan := 0; scan < 2; scan++ {
		tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
		if err != nil || len(tasks) == 0 {
			return fmt.Errorf("no threads under /proc/%d/task", pid)
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(filepath.Base(t))
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread exited meanwhile
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}

// onOneCPU confines the harness and the given server processes to the
// last CPU the harness may run on (the first takes most of the guest's
// interrupts), and the harness's Go scheduler to one P. The servers were
// started on the whole machine and keep the configuration they sized
// for it; only where they run changes. It returns the function that
// gives the harness its CPUs back (the servers keep theirs: they are
// about to be stopped or restarted).
func onOneCPU(servers []*proc) (restore func(), err error) {
	was, err := affinity(0)
	if err != nil {
		return nil, err
	}
	cpu := was.last()
	if cpu < 0 {
		return nil, fmt.Errorf("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	self := os.Getpid()
	if err := setAffinity(self, one); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	restore = func() {
		runtime.GOMAXPROCS(procs)
		setAffinity(self, was) //nolint:errcheck // widening a mask to what it was cannot fail
	}
	for _, p := range servers {
		if err := setAffinity(p.cmd.Process.Pid, one); err != nil {
			restore()
			return nil, err
		}
	}
	return restore, nil
}
