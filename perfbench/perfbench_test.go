package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/studysvc"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	a, err := serveSchedule(7, 25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveSchedule(7, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from seed 7 differ")
	}
	c, err := serveSchedule(8, 25)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() == c.digest() {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

// The committed schedule digests pin the schedule across builds: a
// build that drew a different schedule from the same seed fails here.
func TestScheduleMatchesCommittedDigest(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range scheduleGoldenSeeds {
		sc, err := serveSchedule(seed, scheduleGoldenSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sc.digest(), table["schedule"][fmt.Sprint(seed)]; got != want {
			t.Errorf("schedule of seed %d: digest %s, committed %s", seed, got, want)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	sc, err := serveSchedule(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc) != int(serveRate*30) {
		t.Fatalf("%d slots, want %d", len(sc), int(serveRate*30))
	}
	block := 0
	for _, c := range serveClasses {
		block += c.perBlock
	}
	inSet := map[uint64]bool{}
	for _, w := range serveWorlds {
		inSet[w] = true
	}
	seenFresh := map[uint64]bool{}
	counts := make([]int, len(serveClasses))
	for i, s := range sc {
		if want := time.Duration(float64(i) / serveRate * float64(time.Second)); s.due != want {
			t.Fatalf("slot %d due %v, want %v", i, s.due, want)
		}
		counts[s.class]++
		if (i+1)%block == 0 {
			for c, cl := range serveClasses {
				if counts[c] != cl.perBlock*(i+1)/block {
					t.Fatalf("after %d slots: %d %s requests, want %d", i+1, counts[c], cl.name, cl.perBlock*(i+1)/block)
				}
			}
		}
		switch s.class {
		case classFresh:
			if inSet[s.req.Seed] || seenFresh[s.req.Seed] {
				t.Fatalf("fresh request %d reuses world %d", i, s.req.Seed)
			}
			seenFresh[s.req.Seed] = true
		default:
			if !inSet[s.req.Seed] {
				t.Fatalf("%s request %d is outside the working set", serveClasses[s.class].name, i)
			}
		}
	}
}

// nameRE is the character set every printed metric name must use.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONListsPrintedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, the command prints %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v, the command prints %+v", b.PerLayer, perLayer)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, want)
	}
}

func TestReadmeDocumentsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(string(raw), "`"+d.Name+"`") &&
			!(strings.HasPrefix(d.Name, "node.") && strings.Contains(string(raw), "`node.<name>")) {
			t.Errorf("README.md does not document %s", d.Name)
		}
	}
}

// Every output any --seed can select has a committed digest.
func TestDigestTableCoversEveryInput(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if table["cold-study"][fmt.Sprint(coldWorld)] == "" {
		t.Errorf("no cold-study digest for world %d", coldWorld)
	}
	for _, r := range allServeKeys() {
		if table["serve-mix"][requestKey(r)] == "" {
			t.Errorf("no serve-mix digest for %s", requestKey(r))
		}
	}
	if table["sweep-grid"][seedsKey(sweepSeeds)] == "" {
		t.Errorf("no sweep-grid digest for seeds %s", seedsKey(sweepSeeds))
	}
}

func TestPerturbedOutputIsCaught(t *testing.T) {
	rep := "Table 1: forum overview\n..."
	chk := &checker{want: digestTable{"cold-study": {"77": digest([]byte(rep))}}}

	o := newOutcome()
	if !chk.check(o, "cold-study", "77", digest([]byte(rep))) || o.failed != 0 {
		t.Fatal("the committed output was rejected")
	}
	perturbed := []byte(rep)
	perturbed[3] ^= 1
	if chk.check(o, "cold-study", "77", digest(perturbed)) || o.mismatches != 1 || o.failed != 1 {
		t.Fatalf("a one-bit change passed the check (mismatches %d, failed %d)", o.mismatches, o.failed)
	}
	if chk.check(o, "cold-study", "78", digest([]byte(rep))) || o.mismatches != 2 {
		t.Fatal("an output without a committed digest passed the check")
	}

	// A changed summary number changes the response digest.
	sum := &studysvc.Summary{Proofs: 12}
	d1, err := outputDigest(sum, rep)
	if err != nil {
		t.Fatal(err)
	}
	sum.Proofs++
	d2, err := outputDigest(sum, rep)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("a changed summary kept its digest")
	}
}

func TestValidateRejectsMissingAndExtraMetrics(t *testing.T) {
	o := newOutcome()
	for _, d := range endToEnd {
		o.set(d.Name, 1, d.Unit, 1)
	}
	if err := o.validate(endToEnd); err != nil {
		t.Fatal(err)
	}
	o.set("extra", 1, "s", 1)
	if o.validate(endToEnd) == nil {
		t.Error("an undeclared metric passed")
	}
	delete(o.metrics, "extra")
	delete(o.metrics, "setup_s")
	if o.validate(endToEnd) == nil {
		t.Error("a missing metric passed")
	}
}

func TestHDQuantile(t *testing.T) {
	if got := betaCDF(0.3, 2, 3); math.Abs(got-0.3483) > 1e-4 {
		t.Errorf("I_0.3(2, 3) = %v, want 0.3483", got)
	}
	xs := []float64{1, 2, 3, 4, 5}
	if got := hdQuantile(xs, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("HD median of 1..5 = %v, want 3", got)
	}
	var big []float64
	for i := range 1001 {
		big = append(big, float64(i))
	}
	if got := hdQuantile(big, 0.95); math.Abs(got-950) > 1 {
		t.Errorf("HD p95 of 0..1000 = %v, want about 950", got)
	}
}
