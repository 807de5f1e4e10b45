package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// provenance says which machine and which tree produced a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// GitSHA and Dirty come from git when the tree is a checkout
	// ("unknown" otherwise); SourceDigest hashes every Go source and
	// go.mod under the working directory, so a tree without git still
	// has an identity.
	GitSHA       string `json:"git_sha"`
	Dirty        string `json:"dirty"`
	SourceDigest string `json:"source_digest"`
	TimestampUTC string `json:"timestamp_utc"`
}

func (p provenance) String() string {
	b, _ := json.Marshal(p) // plain strings and numbers always marshal
	return string(b)
}

func collectProvenance(ctx context.Context, o *options) provenance {
	p := provenance{
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GitSHA:       "unknown",
		Dirty:        "unknown",
		SourceDigest: sourceDigest("."),
		TimestampUTC: time.Now().UTC().Format(time.RFC3339Nano),
	}
	// Only a checkout rooted here names this tree; git would otherwise
	// report an enclosing repository's commit.
	if _, err := os.Stat(".git"); err != nil {
		return p
	}
	if sha, err := git(ctx, "rev-parse", "HEAD"); err == nil {
		p.GitSHA = sha
		if st, err := git(ctx, "status", "--porcelain", "--untracked-files=no"); err == nil {
			p.Dirty = "false"
			if st != "" {
				p.Dirty = "true"
			}
		}
	}
	return p
}

// git runs one read-only git command in the working directory, bounded
// so a missing or wedged git cannot stall the run.
func git(ctx context.Context, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", args...).Output()
	return strings.TrimSpace(string(out)), err
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

// sourceDigest hashes the path and content of every .go file and go.mod
// under root, skipping hidden directories (build output lives there).
func sourceDigest(root string) string {
	h := sha256.New()
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
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
