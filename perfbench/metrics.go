package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples collects one timing per operation.
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

// quantile returns the nearest-rank q-quantile (q in [0,1]).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

// tailQ is the highest percentile, up to the 99th, that has at least
// ten samples beyond it.
func tailQ(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// chunk is the number of consecutive samples a windowed statistic
// takes at a time: enough for the 99th percentile to have ten samples
// beyond it.
const chunk = 1000

// chunks splits the samples, in the order taken, into windows of
// chunk samples, dropping the remainder; nil when there are fewer than
// three windows.
func (s samples) chunks() []samples {
	n := len(s) / chunk
	if n < 3 {
		return nil
	}
	out := make([]samples, n)
	for i := range out {
		out[i] = s[i*chunk : (i+1)*chunk]
	}
	return out
}

// tail returns the value at the highest percentile, up to the 99th,
// with at least ten samples beyond it, and the percentile used. With
// enough samples it is the median over windows of chunk consecutive
// samples of each window's 99th percentile, so that bursts of outside
// load on the host move the windows they hit and not the result.
func (s samples) tail() (time.Duration, float64) {
	ws := s.chunks()
	if ws == nil {
		q := tailQ(len(s))
		return s.quantile(q), q
	}
	var per samples
	for _, w := range ws {
		per.add(w.quantile(0.99))
	}
	return per.median(), 0.99
}

// rate returns units completed per second of sample time, where each
// sample completed perSample units: with enough samples the median
// over windows of chunk consecutive samples, otherwise over all.
func (s samples) rate(perSample int) float64 {
	ws := s.chunks()
	if ws == nil {
		return float64(perSample*len(s)) / s.sum().Seconds()
	}
	var per []float64
	for _, w := range ws {
		per = append(per, float64(perSample*len(w))/w.sum().Seconds())
	}
	slices.Sort(per)
	return per[len(per)/2]
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// opKinds are the operation kinds a run counts, in report order.
var opKinds = []string{"query", "batch", "join", "leave", "period", "catchup"}

// ops counts attempted and failed operations per kind.
type ops struct {
	attempted map[string]int
	failed    map[string]int
	errs      []string
}

func newOps() *ops { return &ops{attempted: map[string]int{}, failed: map[string]int{}} }

// record counts one operation and keeps the first few errors.
func (o *ops) record(kind string, err error) error {
	o.attempted[kind]++
	if err != nil {
		o.failed[kind]++
		if len(o.errs) < 5 {
			o.errs = append(o.errs, kind+": "+err.Error())
		}
	}
	return err
}

func (o *ops) totals() (attempted, failed int) {
	for _, k := range opKinds {
		attempted += o.attempted[k]
		failed += o.failed[k]
	}
	return attempted, failed
}

func (o *ops) report(w io.Writer) {
	var b strings.Builder
	b.WriteString("ops:")
	for _, k := range opKinds {
		fmt.Fprintf(&b, " %s %d/%d", k, o.attempted[k]-o.failed[k], o.attempted[k])
	}
	fmt.Fprintln(w, b.String(), "(ok/attempted)")
	for _, e := range o.errs {
		fmt.Fprintln(w, "  error:", e)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is the metrics object of the result line.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// printMetrics lists the metrics by name on w, one per line.
func printMetrics(w io.Writer, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // finite floats and plain maps always marshal
	}
	return string(b)
}

// hostSteal reads the CPU time the hypervisor took from this machine
// and the total, in clock ticks since boot, from /proc/stat; ok is
// false where that is not available.
func hostSteal() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
