package fedqcc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFuncRE matches the test, benchmark and fuzz functions go test can select.
var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// testFuncsByDir maps every directory holding _test.go files (slash-separated,
// relative to the module root, "." for the root) to its selectable functions.
func testFuncsByDir(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				// perfbench is its own module; go test ./... never enters it.
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			out[dir] = append(out[dir], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// shellFields splits a command line on blanks, keeping single-quoted words
// whole (the only quoting the workflow uses).
func shellFields(line string) []string {
	var fields []string
	var cur strings.Builder
	quoted, inWord := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted = !quoted
			inWord = true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				fields = append(fields, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		fields = append(fields, cur.String())
	}
	return fields
}

// TestCIRunPatternsMatchTests guards the workflow against vacuous gates: go
// test -run/-bench/-fuzz pass silently when a pattern selects nothing, so
// every alternative of every such pattern in ci.yml must match at least one
// function in the packages its step names. "-" and "NONE" are the
// deliberate run-nothing patterns of bench and fuzz steps.
func TestCIRunPatternsMatchTests(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncsByDir(t)
	checked := 0
	for _, line := range strings.Split(string(src), "\n") {
		fields := shellFields(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:")))
		goTest := false
		for i := 0; i+1 < len(fields); i++ {
			if fields[i] == "go" && fields[i+1] == "test" {
				goTest = true
			}
		}
		if !goTest {
			continue
		}
		var patterns, pkgs []string
		for i := 0; i < len(fields); i++ {
			f := fields[i]
			switch {
			case f == "-run" || f == "-bench" || f == "-fuzz":
				if i+1 < len(fields) {
					patterns = append(patterns, fields[i+1])
					i++
				}
			case strings.HasPrefix(f, "-run=") || strings.HasPrefix(f, "-bench=") || strings.HasPrefix(f, "-fuzz="):
				patterns = append(patterns, f[strings.Index(f, "=")+1:])
			case strings.HasPrefix(f, "./"):
				pkgs = append(pkgs, f)
			}
		}
		var names []string
		for _, p := range pkgs {
			if p == "./..." {
				for _, dirFuncs := range funcs {
					names = append(names, dirFuncs...)
				}
				continue
			}
			dir := strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
			if dir == "" {
				dir = "."
			}
			names = append(names, funcs[dir]...)
		}
		for _, pat := range patterns {
			if pat == "-" || pat == "NONE" {
				continue
			}
			for _, alt := range strings.Split(pat, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: bad pattern %q in %q: %v", alt, line, err)
					continue
				}
				found := false
				for _, n := range names {
					if re.MatchString(n) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("ci.yml: %q matches no test in %v:\n%s", alt, pkgs, strings.TrimSpace(line))
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test patterns in ci.yml")
	}
}
