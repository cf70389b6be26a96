// Package useragent models HTTP User-Agent strings as the paper uses
// them (Section 6.3): a relative measure of how many hosts sit behind
// the addresses of a /24 block, derived from a 1-in-4096 random sample
// of request headers. It includes a deterministic UA-string population
// model, the request sampler, and a HyperLogLog sketch for estimating
// unique-UA counts without storing the strings.
package useragent

import (
	"fmt"
	"math"
	"math/rand"

	"ipscope/internal/xrand"
)

// SampleRate is the paper's header-sampling rate: 1 out of 4K requests.
const SampleRate = 4096

// Class describes what kind of client population generates UA strings.
type Class uint8

// Client population classes with very different UA diversity.
const (
	ClassResidential Class = iota // a handful of devices per address
	ClassBot                      // one or very few UA strings, many requests
	ClassGateway                  // thousands of devices behind one block
	ClassEnterprise               // managed fleet: moderate diversity
)

var (
	browsers = []string{"Mozilla/5.0 (Windows NT 10.0; Win64; x64)", "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_11)", "Mozilla/5.0 (X11; Linux x86_64)", "Mozilla/5.0 (iPhone; CPU iPhone OS 9_3)", "Mozilla/5.0 (Linux; Android 6.0)"}
	engines  = []string{"AppleWebKit/537.36 (KHTML, like Gecko) Chrome/%d.0 Safari/537.36", "Gecko/20100101 Firefox/%d.0", "Version/9.0 Mobile/13E238 Safari/601.1"}
	apps     = []string{"com.example.news/%d CFNetwork/758", "WeatherApp/%d.2 (Android)", "Mapper/%d Dalvik/2.1", "ShopClient/%d.0 okhttp/3.2", "Stream/%d ExoPlayer"}
	bots     = []string{"ExampleBot/2.1 (+http://example.com/bot)", "crawler/1.0", "FeedFetcher-Example"}
)

// Device generates the UA strings of one device. A device has a base
// browser UA and a handful of app UAs (the paper notes smartphone apps
// inflate per-device UA diversity).
type Device struct {
	browser string
	apps    []string
}

// NewDevice derives a deterministic device from a seed.
func NewDevice(seed uint64) Device {
	r := rand.New(rand.NewSource(int64(xrand.Splitmix64(seed))))
	d := Device{
		browser: fmt.Sprintf("%s %s", browsers[r.Intn(len(browsers))],
			fmt.Sprintf(engines[r.Intn(len(engines))], 40+r.Intn(12))),
	}
	napps := r.Intn(4)
	for i := 0; i < napps; i++ {
		d.apps = append(d.apps, fmt.Sprintf(apps[r.Intn(len(apps))], 1+r.Intn(9)))
	}
	return d
}

// UA returns the User-Agent string for one request from this device.
// Most requests come from the browser; some from apps.
func (d Device) UA(r *rand.Rand) string {
	if len(d.apps) > 0 && r.Float64() < 0.3 {
		return d.apps[r.Intn(len(d.apps))]
	}
	return d.browser
}

// BotUA returns a deterministic bot UA string for a seed.
func BotUA(seed uint64) string {
	return bots[xrand.Splitmix64(seed)%uint64(len(bots))]
}

// Sampler implements the 1-in-SampleRate request sampling used by the
// data-collection pipeline. It is deterministic given its stream.
type Sampler struct {
	r    *rand.Rand
	rate int
}

// NewSampler returns a sampler taking one of every rate requests
// (rate <= 1 samples everything).
func NewSampler(seed uint64, rate int) *Sampler {
	if rate < 1 {
		rate = 1
	}
	return &Sampler{r: xrand.New(seed, "ua-sampler"), rate: rate}
}

// Sample reports whether one request should have its UA recorded.
func (s *Sampler) Sample() bool {
	return s.rate == 1 || s.r.Intn(s.rate) == 0
}

// SampleN returns how many of n requests get sampled (binomial draw,
// avoiding n iterations for large n).
func (s *Sampler) SampleN(n int) int {
	if s.rate == 1 {
		return n
	}
	p := 1.0 / float64(s.rate)
	mean := float64(n) * p
	if n > 10000 {
		// Normal approximation.
		v := mean + s.r.NormFloat64()*math.Sqrt(mean*(1-p))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	k := 0
	for i := 0; i < n; i++ {
		if s.Sample() {
			k++
		}
	}
	return k
}

// HLL is a HyperLogLog sketch for estimating the number of distinct
// UA strings observed per /24 block without storing them.
type HLL struct {
	p    uint8 // precision: m = 2^p registers
	regs []uint8
}

// NewHLL creates a sketch with 2^p registers. Valid p: 4..16.
func NewHLL(p uint8) *HLL {
	if p < 4 {
		p = 4
	}
	if p > 16 {
		p = 16
	}
	return &HLL{p: p, regs: make([]uint8, 1<<p)}
}

// AddString inserts a string into the sketch.
func (h *HLL) AddString(s string) {
	h.Add(hash64(s))
}

// Add inserts a pre-hashed item.
func (h *HLL) Add(x uint64) {
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // ensure termination
	rho := uint8(1)
	for rest&(1<<63) == 0 {
		rho++
		rest <<= 1
	}
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
}

// Precision returns the sketch's precision p (2^p registers).
func (h *HLL) Precision() uint8 { return h.p }

// Registers returns a copy of the register array, for serialization.
func (h *HLL) Registers() []uint8 { return append([]uint8(nil), h.regs...) }

// HLLFromRegisters reconstructs a sketch from a serialized register
// array; len(regs) must be 2^p.
func HLLFromRegisters(p uint8, regs []uint8) (*HLL, error) {
	if p < 4 || p > 16 {
		return nil, fmt.Errorf("useragent: invalid precision %d", p)
	}
	if len(regs) != 1<<p {
		return nil, fmt.Errorf("useragent: %d registers for precision %d (want %d)",
			len(regs), p, 1<<p)
	}
	return &HLL{p: p, regs: append([]uint8(nil), regs...)}, nil
}

// Merge folds o into h. Both sketches must share the same precision.
func (h *HLL) Merge(o *HLL) error {
	if h.p != o.p {
		return fmt.Errorf("useragent: precision mismatch %d != %d", h.p, o.p)
	}
	for i, v := range o.regs {
		if v > h.regs[i] {
			h.regs[i] = v
		}
	}
	return nil
}

// invPow2[v] is a register's term of the harmonic sum, 2^-v (+Inf past
// v = 63, where the shift is zero; no hashed register gets there).
var invPow2 = func() (t [256]float64) {
	for v := range t {
		t[v] = 1 / float64(uint64(1)<<uint(v))
	}
	return t
}()

// Estimate returns the estimated distinct count, with the standard
// small-range (linear counting) correction.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
	sum := 0.0
	zeros := 0
	for _, v := range h.regs {
		sum += invPow2[v]
		if v == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	switch len(h.regs) {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	}
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// hash64 is FNV-1a, sufficient and dependency-free for sketching.
func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	// Finalize to improve low-bit diffusion for HLL register selection.
	return xrand.Splitmix64(h)
}
