"""Checks on the library source itself."""

import ast
import pathlib

import qgroth
import qgroth.torus


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so they cannot guard anything
    found = []
    for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_root_lattice_is_the_one_lattice():
    # no module defines or imports a Weight class, and cartan works in
    # integers: it imports nothing from fractions
    found = []
    for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and node.name == "Weight":
                found.append(f"{path.name}:{node.lineno} defines Weight")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name.rsplit(".", 1)[-1] for a in node.names}
                if "Weight" in names:
                    found.append(f"{path.name}:{node.lineno} imports Weight")
                if path.name == "cartan.py" and (
                    "fractions" in names or isinstance(node, ast.ImportFrom) and node.module == "fractions"
                ):
                    found.append(f"cartan.py:{node.lineno} imports fractions")
    assert found == []
    assert "Weight" not in qgroth.__all__ and not hasattr(qgroth, "Weight")


def test_a_y_monomial_has_one_representation():
    # a Y-monomial is an exponent map {(i, p): e} outside a torus and a key
    # inside one: no module defines, imports or names a Monomial class, and
    # the package exports none
    found = []
    for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and node.name == "Monomial":
                found.append(f"{path.name}:{node.lineno} defines Monomial")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if any("Monomial" in (a.name.rsplit(".", 1)[-1], a.asname) for a in node.names):
                    found.append(f"{path.name}:{node.lineno} imports Monomial")
            elif isinstance(node, ast.Name) and node.id == "Monomial":
                found.append(f"{path.name}:{node.lineno} names Monomial")
            elif isinstance(node, ast.Attribute) and node.attr == "Monomial":
                found.append(f"{path.name}:{node.lineno} names Monomial")
    assert found == []
    assert "Monomial" not in qgroth.__all__ and not hasattr(qgroth, "Monomial")
    assert not hasattr(qgroth.torus, "Monomial")


def _is_digit_read(node) -> bool:
    # ((u >> s) & mask) - half: one W-bit digit of a key, read with its bias
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.BitAnd)
        and isinstance(node.left.left, ast.BinOp)
        and isinstance(node.left.left.op, ast.RShift)
    )


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def loops_holding(tree, holds, scope=""):
    """The enclosing function of every loop or comprehension that holds a
    node for which holds(node) is true."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += loops_holding(node, holds, f"{scope}.{node.name}".lstrip("."))
        elif isinstance(node, LOOPS) and any(map(holds, ast.walk(node))):
            found.append(scope)
        else:
            found += loops_holding(node, holds, scope)
    return found


def library_loops_holding(holds) -> list:
    """(file, enclosing function) of every library loop holding a node for
    which holds(node) is true."""
    found = []
    for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py")):
        found += [(path.name, scope) for scope in loops_holding(ast.parse(path.read_text(), str(path)), holds)]
    return found


def test_keys_leave_a_torus_only_through_exponents():
    # one read-back path, the one-call struct read of `exponents`: no library
    # loop reads a key one digit at a time (`conftest.digit_loop` is the
    # reference read that tests alone keep)
    assert library_loops_holding(_is_digit_read) == []


def _is_digit_write(node) -> bool:
    # e << place[k]: one exponent packed at its key digit
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and isinstance(node.right, ast.Subscript)
        and isinstance(node.right.value, (ast.Name, ast.Attribute))
        and getattr(node.right.value, "id", getattr(node.right.value, "attr", None)) in ("place", "_place")
    )


def test_only_the_torus_packs_a_key():
    # keys enter a torus through `QuantumTorus.entry`, the window's
    # base-character packer `YTorus.shifted` and the division's box: no other
    # module packs a key digit or reads a torus's places, rows or bias
    assert library_loops_holding(_is_digit_write) == [
        ("torus.py", "QuantumTorus.entry"),
        ("torus.py", "YTorus.shifted"),
    ]
    reads = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py"))
        if path.name != "torus.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_place", "_rows", "_bias")
    ]
    assert reads == []


def test_only_qcartan_reads_the_pairing_rows():
    # `QuantumCartan.n_pair` and `QuantumCartan.gram` are the two readers of
    # the rows `._n`: no other module reads an `._n` attribute of another
    # object (`QGroupSide` keeps its own N(beta_k) list as `self._n`)
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py"))
        if path.name != "qcartan.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr == "_n"
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert reads == []


def _is_translated_row(node) -> bool:
    # (family, m, m + d, i, j): a relation row whose level is computed
    return isinstance(node, ast.Tuple) and len(node.elts) == 5 and any(isinstance(e, ast.BinOp) for e in node.elts)


def test_only_relation_failures_reads_rows_off_the_shift():
    # one read-off of the translated rows: neither verify_relations nor
    # check_h_relations keeps its own copy
    assert library_loops_holding(_is_translated_row) == [("presentation.py", "relation_failures")]


def _tracer_bindings() -> set[str]:
    # the last name of every attribute path in perfbench/tracer.py's SPANS,
    # read from its source, which stays unimported
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return {span.elts[2].value.rsplit(".", 1)[-1] for span in node.value.elts}
    raise AssertionError("perfbench/tracer.py has no SPANS table")


def test_every_library_function_has_a_caller():
    # a function defined in the library is referenced inside it, is exported,
    # is a CLI command, or is bound by a tracer span; a module-level function
    # counts as referenced when its name is read, a method only when an
    # attribute of its name is read, so a local variable of the same name
    # does not keep it
    defined, names, attributes, commands = [], set(), set(), set()
    for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((path.name, node.lineno, node.name, id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg == "fn" and isinstance(node.value, ast.Name):
                commands.add(node.value.id)
    assert commands
    kept = set(qgroth.__all__) | commands | _tracer_bindings() | attributes
    orphans = [
        f"{file}:{line} {name}"
        for file, line, name, method in defined
        if name not in kept
        and (method or name not in names)
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert orphans == []


def _calls(tree, scope=""):
    """(enclosing function, called name) of every call by a bare or dotted name."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _calls(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name:
                found.append((scope, name))
        found += _calls(node, scope)
    return found


def test_every_hall_scalar_enters_through_specialize():
    # no module builds a UScalar by its constructor, and the private builder
    # _reduced is called only by specialize and UScalar's ring operations;
    # the ring has no division, so no module that holds Hall scalars (hall
    # and the modules importing it) calls an inverse: every denominator is a
    # positive integer given to specialize
    calls, inverting = [], []
    for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = _calls(tree)
        calls += found
        holds_scalars = path.name == "hall.py" or any(
            isinstance(node, ast.ImportFrom) and node.module == "hall" for node in ast.walk(tree)
        )
        if holds_scalars:
            inverting += [(path.name, scope) for scope, name in found if name == "inverse"]
    assert [c for c in calls if c[1] == "UScalar"] == []
    assert inverting == []
    builders = {scope for scope, name in calls if name == "_reduced"}
    assert "specialize" in builders
    assert {s for s in builders if s != "specialize" and not s.startswith("UScalar.")} == set()
    from qgroth import hall

    for gone in ("__init__", "of", "u", "half_u", "inverse"):
        assert gone not in vars(hall.UScalar), gone
    assert not hasattr(hall, "u_power")
    assert not hasattr(hall.DerivedHall, "scalar") and not hasattr(hall.DerivedHall, "upow")


def _functions(tree, scope=""):
    """(qualified name, parameter names) of every function and method."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope}.{node.name}".lstrip(".")
            if not isinstance(node, ast.ClassDef):
                args = node.args
                found.append((name, {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}))
            found += _functions(node, name)
        else:
            found += _functions(node, scope)
    return found


def test_the_derived_hall_algebra_owns_what_depends_on_the_quiver_and_the_field():
    # everything built from (quiver, q) is an attribute of the one DerivedHall
    # of the pair, built on the orientation's adapted word: only the registry,
    # its constructor and the hall_number entry point take the word and q,
    # and nothing takes a quiver and q
    from qgroth import hall

    tree = ast.parse(pathlib.Path(hall.__file__).read_text())
    both = sorted(name for name, params in _functions(tree) if {"word", "q"} <= params)
    assert both == ["DerivedHall.__init__", "derived_hall", "hall_number"]
    assert [name for name, params in _functions(tree) if {"quiver", "q"} <= params] == []
    for gone in ("_iso_tables", "aut_count", "model_rep", "hall_numbers", "_hom_ext", "_work"):
        assert not hasattr(hall, gone), gone


def test_the_adapted_word_owns_the_euler_form():
    # the Euler and hom tables of mod(FQ) are built once, on the word: only
    # AdaptedWord.euler calls ringel_form, only cartan and presentation read
    # the Cartan matrix whole, and N(beta) is read off the Euler table's
    # diagonal, with no n_gamma of its own
    euler, cartan, defines = set(), set(), []
    for path in sorted(pathlib.Path(qgroth.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, name in _calls(tree):
            if name == "ringel_form":
                euler.add((path.name, scope))
            elif name == "cartan_matrix":
                cartan.add(path.name)
        defines += [path.name for scope, _ in _functions(tree) if scope.rsplit(".", 1)[-1] == "n_gamma"]
    assert euler == {("quiver.py", "AdaptedWord.euler")}
    assert cartan <= {"cartan.py", "presentation.py"} and "presentation.py" in cartan
    assert defines == []


def test_presentation_keeps_no_module_state_and_reads_no_pairing_rows():
    # the facts of the pairing rows are checked where qcartan builds them and
    # those of a node are cached by function: presentation binds no
    # module-level dict, list or set (so no id()-keyed cache) and reads no
    # `._n` attribute
    import qgroth.presentation as presentation

    bound = [name for name, v in vars(presentation).items() if not name.startswith("__") and isinstance(v, (dict, list, set))]
    tree = ast.parse(pathlib.Path(presentation.__file__).read_text())
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_n"]
    assert bound == [] and reads == []
