package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseDirectiveFixture parses one source string into the []*Package
// shape the directive collectors want.
func parseDirectiveFixture(t *testing.T, src string) (*token.FileSet, []*Package) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return fset, []*Package{{Dir: ".", Files: []*ast.File{file}}}
}

const directiveFixture = `package p

func f() {
	//sgxperf:allow(vclock) deliberate wall-clock read for the exhibit
	a := 1
	//sgxperf:allow(hotpath)
	b := 2
	_, _ = a, b
}

//sgxperf:lockorder shards nest under the registry by design
func g() {}
`

func TestCollectDirectivesParsesBothSyntaxes(t *testing.T) {
	fset, pkgs := parseDirectiveFixture(t, directiveFixture)

	allows := collectAllows(fset, pkgs)
	if len(allows.entries) != 2 {
		t.Fatalf("allow entries = %d, want 2", len(allows.entries))
	}
	for k, why := range allows.entries {
		switch k.analyzer {
		case "vclock":
			if why != "deliberate wall-clock read for the exhibit" {
				t.Errorf("vclock justification = %q", why)
			}
		case "hotpath":
			if why != "" {
				t.Errorf("hotpath justification = %q, want empty", why)
			}
		default:
			t.Errorf("unexpected analyzer %q", k.analyzer)
		}
	}

	marks := collectLockOrderMarks(fset, pkgs)
	if len(marks.entries) != 1 {
		t.Fatalf("lockorder entries = %d, want 1", len(marks.entries))
	}
	for k, why := range marks.entries {
		if k.analyzer != "lockorder" {
			t.Errorf("analyzer = %q, want lockorder", k.analyzer)
		}
		if why != "shards nest under the registry by design" {
			t.Errorf("justification = %q", why)
		}
	}
}

func TestDirectiveSetCovers(t *testing.T) {
	fset, pkgs := parseDirectiveFixture(t, directiveFixture)
	ds := collectAllows(fset, pkgs)

	// The vclock directive sits on line 4; it covers line 4 and line 5
	// (the statement below), for the named analyzer only.
	pos := func(line int) token.Pos {
		return fset.File(pkgs[0].Files[0].Pos()).LineStart(line)
	}
	if !ds.covers("vclock", pos(5)) {
		t.Error("directive on line above should cover the statement")
	}
	if !ds.covers("vclock", pos(4)) {
		t.Error("directive should cover its own line")
	}
	if ds.covers("hotpath", pos(5)) {
		t.Error("directive must not cover a different analyzer's diagnostic")
	}
	if ds.covers("vclock", pos(8)) {
		t.Error("directive must not cover an unrelated line")
	}

	var nilSet *directiveSet
	if nilSet.covers("vclock", pos(5)) {
		t.Error("nil directiveSet must cover nothing")
	}
}

func TestDirectiveSetProblems(t *testing.T) {
	fset, pkgs := parseDirectiveFixture(t, directiveFixture)
	missing := func(a string) string { return "missing:" + a }
	stale := func(a string) string { return "stale:" + a }
	ds := collectDirectives(fset, pkgs, allowRE, "", missing, stale)

	// Use the vclock directive; leave hotpath (no justification) untouched.
	pos := fset.File(pkgs[0].Files[0].Pos()).LineStart(5)
	ds.covers("vclock", pos)

	diags := ds.problems(map[string]bool{"vclock": true, "hotpath": true})
	if len(diags) != 1 {
		t.Fatalf("problems = %d, want 1 (hotpath missing justification): %v", len(diags), diags)
	}
	if diags[0].Message != "missing:hotpath" || diags[0].Analyzer != "hotpath" {
		t.Errorf("unexpected diagnostic %+v", diags[0])
	}

	// An unused directive with a justification is stale.
	ds2 := collectDirectives(fset, pkgs, allowRE, "", missing, stale)
	diags = ds2.problems(map[string]bool{"vclock": true})
	if len(diags) != 1 || diags[0].Message != "stale:vclock" {
		t.Fatalf("want one stale vclock problem, got %v", diags)
	}

	// Inactive analyzers are out of scope when an active map is given…
	if diags := ds2.problems(map[string]bool{}); len(diags) != 0 {
		t.Errorf("empty active map should report nothing, got %v", diags)
	}
	// …while a nil map puts every occurrence in scope.
	if diags := ds2.problems(nil); len(diags) != 2 {
		t.Errorf("nil active map should report both occurrences, got %v", diags)
	}
}

// TestAllowAndMarkWrappersKeepWording pins the problem wording each
// family's collector gives the one directiveSet type.
func TestAllowAndMarkWrappersKeepWording(t *testing.T) {
	fset, pkgs := parseDirectiveFixture(t, directiveFixture)

	as := collectAllows(fset, pkgs)
	msgs := map[string]bool{}
	for _, d := range as.problems(map[string]bool{"vclock": true, "hotpath": true}) {
		msgs[d.Message] = true
	}
	if !msgs["//sgxperf:allow(hotpath) needs a one-line justification after the parenthesis"] {
		t.Errorf("missing-justification wording changed: %v", msgs)
	}
	if !msgs["stale //sgxperf:allow(vclock): no diagnostic here to suppress; remove the annotation"] {
		t.Errorf("stale wording changed: %v", msgs)
	}

	ms := collectLockOrderMarks(fset, pkgs)
	got := ms.problems(nil)
	if len(got) != 1 {
		t.Fatalf("lockorder problems = %d, want 1", len(got))
	}
	want := "stale //sgxperf:lockorder: no acquisition edge here to exempt; remove the annotation"
	if got[0].Message != want {
		t.Errorf("lockorder stale wording = %q, want %q", got[0].Message, want)
	}
	if got[0].Analyzer != "lockorder" {
		t.Errorf("analyzer = %q", got[0].Analyzer)
	}
	if !strings.HasSuffix(got[0].Pos.Filename, "fixture.go") {
		t.Errorf("position filename = %q", got[0].Pos.Filename)
	}
}
