package fsnewtop_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"
)

// CI's -run and -bench patterns name tests by regular expression, and a
// pattern that matches nothing passes silently: a test renamed or deleted
// drops out of its CI step without a word. TestCIPatternsNameTests fails
// instead, for every top-level alternative of every pattern that matches
// no test function of its kind anywhere in the repository.

// patternFlag finds one -run or -bench flag and its value, quoted or not.
var patternFlag = regexp.MustCompile(`(?:^|\s)-(run|bench)[= ]('[^']*'|"[^"]*"|[^\s'"]+)`)

// testFuncs returns the names of the functions declared in the _test.go
// files of fsys; matchesAny picks the Test* or Benchmark* ones.
func testFuncs(fsys fs.FS) (map[string]bool, error) {
	names := make(map[string]bool)
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	return names, err
}

// topLevel splits s at each sep outside parentheses and brackets, as go
// test splits a -run or -bench pattern first at '|', then at '/'.
func topLevel(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// checkCIPatterns reports every alternative of a -run (-bench) pattern in
// fsys's workflows whose top level — the part go test matches against
// function names — matches no Test (Benchmark) function in fsys.
func checkCIPatterns(fsys fs.FS) ([]string, error) {
	funcs, err := testFuncs(fsys)
	if err != nil {
		return nil, err
	}
	workflows, err := fs.Glob(fsys, ".github/workflows/*.yml")
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, wf := range workflows {
		text, err := fs.ReadFile(fsys, wf)
		if err != nil {
			return nil, err
		}
		for _, m := range patternFlag.FindAllStringSubmatch(string(text), -1) {
			flag, pattern := m[1], strings.Trim(m[2], `'"`)
			kind := "Test"
			if flag == "bench" {
				kind = "Benchmark"
			}
			for _, alt := range topLevel(pattern, '|') {
				name := topLevel(alt, '/')[0]
				if alt == "^$" || name == "" {
					continue
				}
				re, err := regexp.Compile(name)
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s: -%s alternative %q: %v", wf, flag, alt, err))
					continue
				}
				if !matchesAny(re, funcs, kind) {
					problems = append(problems, fmt.Sprintf("%s: -%s alternative %q matches no %s function", wf, flag, alt, kind))
				}
			}
		}
	}
	return problems, nil
}

func matchesAny(re *regexp.Regexp, funcs map[string]bool, kind string) bool {
	for name := range funcs {
		if strings.HasPrefix(name, kind) && re.MatchString(name) {
			return true
		}
	}
	return false
}

// TestCIPatternsNameTests keeps CI's test selections and the tests in
// agreement.
func TestCIPatternsNameTests(t *testing.T) {
	problems, err := checkCIPatterns(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}

	t.Run("an alternative naming a deleted test", func(t *testing.T) {
		src := fstest.MapFS{
			"pkg/pkg_test.go": {Data: []byte("package pkg\n\nimport \"testing\"\n\nfunc TestAlpha(t *testing.T) {}\n\nfunc BenchmarkBeta(b *testing.B) {}\n")},
			".github/workflows/ci.yml": {Data: []byte(
				"    run: go test -run 'TestAlpha/sub|TestGone' ./pkg/\n" +
					"    run: go test -run='^$' -bench='Benchmark(Beta|Gone)|BenchmarkAlpha' ./pkg/\n")},
		}
		got, err := checkCIPatterns(src)
		if err != nil {
			t.Fatal(err)
		}
		// A parenthesised alternative hides Gone behind Beta: the reason
		// CI's patterns list flat alternatives.
		want := []string{
			`.github/workflows/ci.yml: -run alternative "TestGone" matches no Test function`,
			`.github/workflows/ci.yml: -bench alternative "BenchmarkAlpha" matches no Benchmark function`,
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("checker reported %q, want %q", got, want)
		}
	})
}
