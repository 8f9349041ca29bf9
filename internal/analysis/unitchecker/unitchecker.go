// Package unitchecker implements the cmd/go vet-tool protocol with nothing
// but the standard library, mirroring golang.org/x/tools/go/analysis/
// unitchecker. `go vet -vettool=heterolint` invokes the tool once per
// package with a JSON config file describing the unit: source files, the
// import map, and the export-data file for every dependency (already built
// by cmd/go). The tool parses and type-checks the unit with go/importer
// reading that export data, runs the analyzers, prints diagnostics, and
// writes the .vetx output cmd/go caches.
//
// Since heterolint v2 the .vetx files carry serialized analyzer facts:
// each unit decodes the fact closure from its dependencies' .vetx files,
// runs the analyzers with those facts visible, and re-encodes the merged
// closure (inherited facts plus the unit's own exports) into its VetxOutput
// — cmd/go hands every unit only its direct dependencies' files, so the
// closure must ride along. Dependency units outside the requested patterns
// arrive with VetxOnly set; for those only the fact-producing analyzers
// run and their diagnostics are discarded.
//
// The protocol surface:
//
//	heterolint -V=full        print a content-derived version (build cache key)
//	heterolint -flags         print the supported analyzer flags as JSON
//	heterolint file.cfg       analyze one unit (what cmd/go invokes)
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"heterohpc/internal/analysis"
)

// vetxHeader introduces the facts section of a .vetx file. Files with any
// other first line (including PR-4's fact-free "heterolint\n" stamp) are
// treated as carrying no facts.
const vetxHeader = "heterolint.facts/v1"

// Config is the JSON unit description cmd/go writes to <objdir>/vet.cfg.
// Field names and meanings follow cmd/go/internal/work; unknown fields are
// ignored so the tool tolerates newer toolchains.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vet-tool binary wrapping the analyzers. It
// terminates the process.
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")
	if err := analysis.Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	var jsonOut bool
	var cfgFile string
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			printVersion(progname)
			os.Exit(0)
		case arg == "-V" || arg == "--V":
			fmt.Printf("%s version devel\n", progname)
			os.Exit(0)
		case arg == "-flags" || arg == "--flags":
			// No analyzer flags: cmd/go uses this to validate user-passed
			// vet flags before running the tool.
			fmt.Println("[]")
			os.Exit(0)
		case arg == "-json" || arg == "--json":
			jsonOut = true
		case arg == "help" || arg == "-h" || arg == "--help":
			usage(progname, analyzers)
			os.Exit(0)
		case strings.HasSuffix(arg, ".cfg"):
			cfgFile = arg
		default:
			log.Fatalf("unrecognized argument %q; invoke via go vet -vettool=%s", arg, progname)
		}
	}
	if cfgFile == "" {
		usage(progname, analyzers)
		os.Exit(1)
	}
	res, err := Run(cfgFile, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		printJSON(os.Stdout, res)
		os.Exit(0)
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Posn, d.Message, d.Analyzer)
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// printVersion emits the version line cmd/go's build-ID probe expects. The
// ID is derived from the binary's own content, so rebuilding heterolint
// with new analyzers invalidates cmd/go's cached vet results.
func printVersion(progname string) {
	data, err := os.ReadFile(os.Args[0])
	if err != nil {
		if exe, eerr := os.Executable(); eerr == nil {
			data, err = os.ReadFile(exe)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	h := sha256.Sum256(data)
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h[:12]))
}

func usage(progname string, analyzers []*analysis.Analyzer) {
	fmt.Fprintf(os.Stderr, "%s: machine-checks heterohpc's map-order, clock-charging, world-lifetime and journal-shape invariants\n\n", progname)
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(command -v %s) ./...\n", progname)
	fmt.Fprintf(os.Stderr, "       %s ./...   (runs go vet with itself as the vettool)\n\nanalyzers:\n", progname)
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
	}
}

// Result is one unit's findings.
type Result struct {
	ImportPath  string
	Diagnostics []JSONDiagnostic
}

// JSONDiagnostic is one finding in -json output, following the upstream
// unitchecker schema.
type JSONDiagnostic struct {
	Analyzer string `json:"-"`
	Posn     string `json:"posn"`
	Message  string `json:"message"`
}

// printJSON emits {"importpath": {"analyzer": [diags]}} like the upstream
// unitchecker, so drivers can stream-decode `go vet -json` output.
func printJSON(w io.Writer, res *Result) {
	tree := map[string]map[string][]JSONDiagnostic{res.ImportPath: {}}
	for _, d := range res.Diagnostics {
		tree[res.ImportPath][d.Analyzer] = append(tree[res.ImportPath][d.Analyzer], d)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(tree)
}

// Run analyzes the unit described by cfgFile and returns its diagnostics.
func Run(cfgFile string, analyzers []*analysis.Analyzer) (*Result, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %v", cfgFile, err)
	}
	res := &Result{ImportPath: cfg.ImportPath}

	// cmd/go expects the facts output to exist even for units that fail to
	// typecheck, so a placeholder is written before any early return and
	// overwritten with the real fact closure after analysis.
	writeVetx := func(facts *analysis.FactStore) error {
		if cfg.VetxOutput == "" {
			return nil
		}
		payload := []byte(vetxHeader + "\n")
		if facts != nil {
			enc, err := facts.Encode()
			if err != nil {
				return err
			}
			payload = append(payload, enc...)
		}
		return os.WriteFile(cfg.VetxOutput, payload, 0o666)
	}
	if err := writeVetx(nil); err != nil {
		return nil, err
	}

	// Facts-only units run just the fact-producing analyzers; their
	// diagnostics are discarded by cmd/go anyway.
	toRun := analyzers
	if cfg.VetxOnly {
		toRun = nil
		for _, a := range analyzers {
			if len(a.FactTypes) > 0 {
				toRun = append(toRun, a)
			}
		}
		if len(toRun) == 0 {
			return res, nil
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure || cfg.VetxOnly {
				return res, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path, not the import string.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	arch := os.Getenv("GOARCH")
	if arch == "" {
		arch = runtime.GOARCH
	}
	tc := &types.Config{
		Importer:    imp,
		Sizes:       types.SizesFor(cfg.Compiler, arch),
		FakeImportC: true,
	}
	if tc.Sizes == nil {
		tc.Sizes = types.SizesFor("gc", runtime.GOARCH)
	}
	if cfg.GoVersion != "" {
		tc.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure || cfg.VetxOnly {
			return res, nil
		}
		return nil, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}

	// Merge the fact closures of every dependency that has one. Unreadable
	// or legacy-format files degrade to "no facts": a stale cache entry
	// must never fail the build.
	facts := analysis.NewFactStore(analyzers...)
	for _, vetx := range sortedValues(cfg.PackageVetx) {
		raw, err := os.ReadFile(vetx)
		if err != nil {
			continue
		}
		body, ok := strings.CutPrefix(string(raw), vetxHeader+"\n")
		if !ok || len(strings.TrimSpace(body)) == 0 {
			continue
		}
		if err := facts.Decode([]byte(body)); err != nil {
			continue
		}
	}

	for _, a := range toRun {
		diags, err := analysis.RunAnalyzer(a, fset, files, pkg, info, facts)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		if cfg.VetxOnly {
			continue
		}
		for _, d := range diags {
			res.Diagnostics = append(res.Diagnostics, JSONDiagnostic{
				Analyzer: a.Name,
				Posn:     fset.Position(d.Pos).String(),
				Message:  d.Message,
			})
		}
	}
	if err := writeVetx(facts); err != nil {
		return nil, err
	}
	return res, nil
}

// sortedValues returns m's values ordered by key, so fact decoding (and
// any duplicate-key resolution) is deterministic across runs.
func sortedValues(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// The framework practices the determinism it preaches: no map-order
	// dependence in the merged fact store.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
