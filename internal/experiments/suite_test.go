package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateSuiteGolden = flag.Bool("update-suite", false, "rewrite testdata/suite.golden from the current sequential run")

// TestSuiteGoldenAndParallel pins the whole suite's rendered output
// (sequential run vs. the golden file) and verifies the parallel runner is
// byte-identical to it — the kernel-based engine is job-isolated, so
// concurrency must not change a single byte.
func TestSuiteGoldenAndParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("suite is seconds-long; skipped in -short")
	}
	var seq bytes.Buffer
	if _, err := RunSuite(&seq, 1, ""); err != nil {
		t.Fatal(err)
	}
	out := seq.String()
	for _, want := range []string{"Figure 1", "Figure 2", "Table I", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Table II", "Figure 9", "Figure 10", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}

	golden := filepath.Join("testdata", "suite.golden")
	if *updateSuiteGolden {
		if err := os.WriteFile(golden, seq.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), want) {
		t.Errorf("sequential suite output deviates from %s (run with -update-suite to rebless); got %d bytes, want %d",
			golden, seq.Len(), len(want))
	}

	var par bytes.Buffer
	rep, err := RunSuite(&par, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(par.Bytes(), seq.Bytes()) {
		t.Errorf("parallel suite output differs from sequential (%d vs %d bytes)", par.Len(), seq.Len())
	}
	if rep == nil || rep.Workers != 4 || len(rep.Sections) != len(suiteSections()) {
		t.Fatalf("bench report incomplete: %+v", rep)
	}
	haveMakespans := false
	for _, s := range rep.Sections {
		if s.Name == "" {
			t.Error("bench section with empty name")
		}
		if len(s.SimMakespans) > 0 {
			haveMakespans = true
		}
	}
	if !haveMakespans {
		t.Error("no section reported simulated makespans")
	}
}

// TestRunSuiteOnly runs single sections through the suite runner: each
// one's output must appear verbatim in the suite golden, its report must
// hold exactly that section, and an unknown name must fail listing the
// valid names without writing anything.
func TestRunSuiteOnly(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "suite.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2", "failover-sweep", "partition-sweep", "table1"} {
		var buf bytes.Buffer
		rep, err := RunSuite(&buf, 1, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 || !bytes.Contains(golden, buf.Bytes()) {
			t.Errorf("%s: standalone output (%d bytes) is not part of suite.golden", name, buf.Len())
		}
		if len(rep.Sections) != 1 || rep.Sections[0].Name != name {
			t.Errorf("%s: report sections = %+v", name, rep.Sections)
		}
	}

	var buf bytes.Buffer
	if _, err := RunSuite(&buf, 1, "faulttol"); err == nil || !strings.Contains(err.Error(), "fault-tolerance") {
		t.Errorf("unknown name: err = %v, want one listing fault-tolerance", err)
	}
	if buf.Len() != 0 {
		t.Errorf("unknown name wrote %d bytes", buf.Len())
	}
}

type text string

func (t text) String() string { return string(t) }

// TestRunSectionsOrderAndError checks the runner's contract on stub
// sections: shared sections run one at a time in declared order, output
// is written in suite order at any worker count, and a failing section
// leaves exactly the sections before it written.
func TestRunSectionsOrderAndError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var order []string
		stub := func(name string, shared bool, err error) suiteSection {
			return suiteSection{name, shared, func(*Env) (fmt.Stringer, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return text(name), err
			}}
		}
		secs := []suiteSection{stub("a", false, nil), stub("s1", true, nil), stub("b", false, nil),
			stub("s2", true, nil), stub("s3", true, nil)}
		var buf bytes.Buffer
		rep, err := runSections(&buf, workers, secs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != "a\ns1\nb\ns2\ns3\n" {
			t.Errorf("workers=%d: output %q", workers, got)
		}
		if len(rep.Sections) != len(secs) || rep.Workers != workers {
			t.Errorf("workers=%d: report %+v", workers, rep)
		}
		var chain []string
		for _, name := range order {
			if name[0] == 's' {
				chain = append(chain, name)
			}
		}
		if strings.Join(chain, ",") != "s1,s2,s3" {
			t.Errorf("workers=%d: shared sections ran as %v", workers, chain)
		}

		boom := errors.New("boom")
		secs = []suiteSection{stub("a", false, nil), stub("s1", true, nil), stub("s2", true, boom),
			stub("b", false, nil), stub("s3", true, nil)}
		buf.Reset()
		if _, err := runSections(&buf, workers, secs, nil); err != boom {
			t.Errorf("workers=%d: err = %v, want boom", workers, err)
		}
		if got := buf.String(); got != "a\ns1\n" {
			t.Errorf("workers=%d: output before the error %q", workers, got)
		}
	}
}
