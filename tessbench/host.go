package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"tessellate/internal/cpu"
	"tessellate/internal/stencil"
)

// host is the fingerprint printed with every report, so that a run on
// other hardware, another kernel tier or another source tree is never
// silently compared with this one.
type host struct {
	model      string
	features   string
	nproc      int
	gomaxprocs int
	l2, llc    int64 // bytes, from sysfs; 0 when unknown
	goVersion  string
	commit     string
	path       string // process-wide kernel dispatch ceiling
}

func fingerprint() host {
	h := host{
		model:      cpuModel(),
		features:   cpu.Features(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     commit(),
		path:       stencil.ActivePath().String(),
	}
	h.l2, h.llc = cacheSizes()
	return h
}

func (h host) print(w io.Writer) {
	fmt.Fprintf(w, "host: cpu=%q features=%s nproc=%d GOMAXPROCS=%d L2=%s LLC=%s go=%s source=%s kernel_path_ceiling=%s\n",
		h.model, h.features, h.nproc, h.gomaxprocs, mib(h.l2), mib(h.llc), h.goVersion, h.commit, h.path)
	if h.path != "simd" || !cpu.HasAVX2 {
		fmt.Fprintf(w, "WARNING: kernel tier %s (avx2=%v): not comparable with runs on the simd tier\n", h.path, cpu.HasAVX2)
	}
}

// mib formats a byte count in MiB.
func mib(b int64) string {
	if b <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's unified/data cache sizes from sysfs and
// returns the level-2 size and the largest level's size.
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	llcLevel := 0
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		ty, err2 := os.ReadFile(filepath.Join(d, "type"))
		sz, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil || strings.TrimSpace(string(ty)) == "Instruction" {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		bytes := parseSize(strings.TrimSpace(string(sz)))
		if level == 2 {
			l2 = bytes
		}
		if level >= llcLevel {
			llcLevel, llc = level, bytes
		}
	}
	return l2, llc
}

// parseSize parses sysfs cache sizes such as "2048K" or "300M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// commit identifies the measured source: the VCS revision when the
// binary was built inside a git checkout, otherwise a digest of the
// repository's Go sources (the benchmark is built from an exported
// tree that is not a repository).
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
		if rev != "" && dirty {
			return rev + "+modified"
		}
		if rev != "" {
			return rev
		}
	}
	hsh := sha256.New()
	n := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".s") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(hsh, "%s\x00%d\x00", p, len(b))
		hsh.Write(b)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(hsh.Sum(nil))[:16]
}
