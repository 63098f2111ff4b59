package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// machine is the fingerprint printed with every result, so a number
// can be traced to the hardware and code that produced it.
type machine struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	CalibMS    float64 `json:"calib_ms"`
	// StealPct is the share of the machine's busy CPU time that the
	// hypervisor gave to other guests during the run (-1 if unknown).
	// On a shared host it moves every wall-clock figure.
	StealPct float64 `json:"steal_pct"`
}

func fingerprint(calibMS, stealPct float64) machine {
	return machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		CalibMS:    calibMS,
		StealPct:   stealPct,
	}
}

// cpuTicks reads the machine-wide busy and stolen CPU ticks from
// /proc/stat; ok is false where it cannot be read.
func cpuTicks() (busy, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = n
			busy += n
		default:
			busy += n
		}
	}
	return busy, steal, true
}

// stealSince returns the steal share, in percent, of the busy ticks
// counted since (busy0, steal0), or -1 if unknown.
func stealSince(busy0, steal0 uint64, ok0 bool) float64 {
	busy, steal, ok := cpuTicks()
	if !ok || !ok0 || busy <= busy0 {
		return -1
	}
	return 100 * float64(steal-steal0) / float64(busy-busy0)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the VCS revision the binary was
// built from when the build saw a repository, otherwise a digest of
// the program's sources (go.mod, cmd/ and internal/ under the working
// directory), which identifies a plain source checkout just as well.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	files := []string{"go.mod"}
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
