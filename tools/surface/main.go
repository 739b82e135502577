// Command surface prints one line per exported identifier of every internal/
// package and per cmd/ flag, with the non-test packages of the module and of
// bench/ that use it: `go run ./tools/surface > api/surface.txt` from the
// module root. Implementing a module or standard-library interface method,
// or carrying a json tag, counts as a use; a flag is "bench" when bench/
// names its command and passes it as a literal. It exits 1 when an identifier
// has no user and no "surface:keep <reason>" line (the test or
// EXPERIMENTS.md row that needs it) in its doc comment.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	goimporter "go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	lines, flagged, err := survey(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "surface:", err)
		os.Exit(2)
	}
	fmt.Print(strings.Join(lines, ""))
	fmt.Fprint(os.Stderr, strings.Join(flagged, ""))
	if len(flagged) > 0 {
		os.Exit(1)
	}
}

// pkg is one package of `go list -json`, type-checked from its non-test files.
type pkg struct {
	Dir, ImportPath string
	GoFiles         []string
	Module          struct{ Path string }
	label           string
	files           []*ast.File
	info            *types.Info
	types           *types.Package
}

// importer resolves the root module's packages to the ones load checked,
// so all users see the same objects, and the rest from the std sources.
type importer func(path string) (*types.Package, error)

func (f importer) Import(path string) (*types.Package, error) { return f(path) }

// load type-checks the module at root and bench/, dependencies first.
func load(root string) ([]*pkg, error) {
	build.Default.CgoEnabled = false // the source importer then reads pure-Go std files
	fset, pkgs, all := token.NewFileSet(), map[string]*pkg{}, []*pkg(nil)
	std := goimporter.ForCompiler(fset, "source", nil)
	conf := types.Config{Importer: importer(func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p.types, nil
		}
		return std.Import(path)
	})}
	for i, dir := range []string{root, filepath.Join(root, "bench")} {
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := &pkg{label: "bench"}
			if err := dec.Decode(p); err != nil {
				return nil, err
			} else if p.Module.Path == "" || pkgs[p.ImportPath] != nil { // std, or seen
				continue
			} else if i == 0 {
				p.label = strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, p.Module.Path), "/")
			}
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, f)
			}
			p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			if p.types, err = conf.Check(p.ImportPath, fset, p.files, p.info); err != nil {
				return nil, err
			}
			if pkgs[p.ImportPath] = p; p.label != "tools/surface" {
				all = append(all, p)
			}
		}
	}
	return all, nil
}

// decl is an exported identifier of an internal/ package.
type decl struct {
	line       string // "internal/graph method CIGraph.Weight"
	start, end token.Pos
	keep       string
	users      map[string]bool
}

// survey returns the module's sorted surface lines and the gate's failures.
func survey(root string) (lines, flagged []string, err error) {
	all, err := load(root)
	if err != nil {
		return nil, nil, err
	}
	decls, receivers, lines := index(all)
	for _, p := range all {
		for id, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin() // a method of an instantiated generic type
			}
			if d := decls[obj]; d != nil && !receivers[id.Pos()] && (id.Pos() < d.start || id.Pos() >= d.end) {
				lab := p.label
				if obj.Pkg() == p.types {
					lab = "self"
				}
				d.users[lab] = true
			}
		}
	}
	ifaces := interfaces(all)
	for obj, d := range decls {
		for _, in := range ifaces {
			n := recvNamed(obj)
			m, _, _ := types.LookupFieldOrMethod(in, false, obj.Pkg(), obj.Name())
			if n != nil && n.TypeParams() == nil && !types.IsInterface(n) && m != nil &&
				types.Implements(types.NewPointer(n), in.Underlying().(*types.Interface)) {
				d.users["implements "+in.Obj().Pkg().Name()+"."+in.Obj().Name()] = true
			}
		}
		var users []string
		for u := range d.users {
			users = append(users, " "+u)
		}
		sort.Strings(users)
		if len(users) == 0 && d.keep == "" {
			flagged = append(flagged, "surface: no non-test user and no surface:keep: "+d.line+"\n")
		} else if len(users) == 0 {
			users = []string{" keep: " + d.keep}
		}
		lines = append(lines, d.line+":"+strings.Join(users, "")+"\n")
	}
	sort.Strings(lines)
	sort.Strings(flagged)
	return lines, flagged, nil
}

var (
	keepLine = regexp.MustCompile(`(?s)surface:keep (.+)`)
	definer  = regexp.MustCompile(`^(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Func|BoolFunc|TextVar)(Var)?$|^Var$`)
)

// index walks the syntax for the internal/ packages' exported identifiers,
// the method receivers (which declare rather than use a type) and the
// cmd/ flags: the first string literal of a flag-defining call.
func index(all []*pkg) (map[types.Object]*decl, map[token.Pos]bool, []string) {
	decls, receivers, lits, flags := map[types.Object]*decl{}, map[token.Pos]bool{}, map[string]bool{}, []string(nil)
	for i := len(all) - 1; i >= 0; i-- { // bench/ comes last: see its literals first
		p := all[i]
		add := func(id *ast.Ident, kind string, doc, alt *ast.CommentGroup, n ast.Node) {
			obj := p.info.Defs[id] // package-level, or a method or field
			if id.IsExported() && strings.HasPrefix(p.label, "internal/") && (obj.Parent() == nil || obj.Parent() == p.types.Scope()) {
				d := &decl{line: p.label + " " + kind + id.Name, start: n.Pos(), end: n.End(), users: map[string]bool{}}
				if doc == nil {
					doc = alt
				}
				if m := keepLine.FindStringSubmatch(doc.Text()); m != nil {
					d.keep = strings.Join(strings.Fields(m[1]), " ")
				}
				if f, ok := n.(*ast.Field); ok && f.Tag != nil {
					tag, _ := strconv.Unquote(f.Tag.Value)
					if strings.Trim(reflect.StructTag(tag).Get("json"), "-") != "" {
						d.users["json"] = true
					}
				}
				decls[obj] = d
			}
		}
		for _, f := range p.files {
			fun, tok, group := "", "", (*ast.CommentGroup)(nil)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if fun = strings.TrimPrefix(n.Name.Name+" ", "main "); n.Recv == nil {
						add(n.Name, "func ", n.Doc, nil, n)
						break
					}
					ast.Inspect(n.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id.Pos()] = true
						}
						return true
					})
					if t := recvNamed(p.info.Defs[n.Name]).Obj(); t.Exported() {
						add(n.Name, "method "+t.Name()+".", n.Doc, nil, n)
					}
				case *ast.GenDecl:
					if tok, group = n.Tok.String(), nil; len(n.Specs) == 1 {
						group = n.Doc
					}
				case *ast.ValueSpec:
					for _, id := range n.Names {
						add(id, tok+" ", n.Doc, group, n)
					}
				case *ast.TypeSpec:
					if add(n.Name, "type ", n.Doc, group, n); decls[p.info.Defs[n.Name]] == nil {
						break
					}
					kind, list := "field ", &ast.FieldList{}
					if st, ok := n.Type.(*ast.StructType); ok {
						list = st.Fields
					} else if it, ok := n.Type.(*ast.InterfaceType); ok {
						kind, list = "method ", it.Methods
					}
					for _, fl := range list.List {
						for _, id := range fl.Names {
							add(id, kind+n.Name.Name+".", fl.Doc, fl.Comment, fl)
						}
					}
				case *ast.BasicLit:
					s, _ := strconv.Unquote(n.Value)
					lits[s] = lits[s] || p.label == "bench"
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !strings.HasPrefix(p.label, "cmd/") {
						break
					}
					fn, _ := p.info.Uses[sel.Sel].(*types.Func)
					if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !definer.MatchString(fn.Name()) {
						break
					}
					for _, a := range n.Args {
						if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							line := p.label + " flag " + fun + "-" + name + ": cli"
							if lits["-"+name] && lits["./"+p.label] {
								line += " bench"
							}
							flags = append(flags, line+"\n")
							break
						}
					}
				}
				return true
			})
		}
	}
	return decls, receivers, flags
}

// interfaces lists the non-generic interfaces of the module's packages
// and the exported ones of the standard-library packages they import.
func interfaces(all []*pkg) []*types.Named {
	ifaces := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	module := map[*types.Package]bool{}
	for _, p := range all {
		module[p.types] = true
		for _, imp := range p.types.Imports() {
			module[imp] = module[imp] // the std imports join as false
		}
	}
	for tp := range module {
		for _, name := range tp.Scope().Names() {
			obj := tp.Scope().Lookup(name)
			if n, ok := obj.Type().(*types.Named); ok && n.Obj() == obj && (module[tp] || obj.Exported()) &&
				types.IsInterface(n) && n.TypeParams() == nil {
				ifaces = append(ifaces, n)
			}
		}
	}
	return ifaces
}

// recvNamed returns the named type method obj is declared on, or nil.
func recvNamed(obj types.Object) *types.Named {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, _ := t.(*types.Named)
		return n
	}
	return nil
}
