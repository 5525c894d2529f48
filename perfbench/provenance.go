package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance stamps every result with what it was measured on and with.
// Two results may be compared only when every field but the code identity
// (GitCommit, SourceSHA) agrees.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      int     `json:"trace"`
	SF         float64 `json:"sf"`
	Shards     int     `json:"shards"`
	WALSync    string  `json:"wal_sync"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	SourceSHA  string  `json:"source_sha256"`
}

func stamp(sp spec, seed int64, seconds, trace int, source string) provenance {
	return provenance{
		Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace,
		SF: sp.sf, Shards: sp.shards, WALSync: sp.walSync(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: gitCommit(), SourceSHA: source,
	}
}

// comparable lists the fields that differ between a and b, other than the
// code identity.
func (a provenance) mismatches(b provenance) []string {
	var out []string
	check := func(name string, ok bool) {
		if !ok {
			out = append(out, name)
		}
	}
	check("workload", a.Workload == b.Workload)
	check("seed", a.Seed == b.Seed)
	check("seconds", a.Seconds == b.Seconds)
	check("trace", a.Trace == b.Trace)
	check("sf", a.SF == b.SF)
	check("shards", a.Shards == b.Shards)
	check("wal_sync", a.WALSync == b.WALSync)
	check("nproc", a.NProc == b.NProc)
	check("gomaxprocs", a.GOMAXPROCS == b.GOMAXPROCS)
	check("go_version", a.GoVersion == b.GoVersion)
	return out
}

// gitCommit is the VCS revision the go tool stamped into the binary, when
// it was built inside a git checkout.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root (hidden
// directories such as the build output skipped): the code identity of a
// checkout that is not a git repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, _ = io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, err = io.Copy(h, f)
		_ = f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
