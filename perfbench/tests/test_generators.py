import involutive as inv

from perfbench.generators import ZERO_DIM_VARIABLES, cyclic, katsura, zero_dim_family


def _polys(names, lines, order=inv.Ordering.DEGREVLEX):
    ctx = inv.VariableContext(tuple(names))
    return [inv.parse_polynomial(line, ctx, order) for line in lines]


def test_cyclic_3_matches_its_definition():
    names, lines = cyclic(3)
    assert names == ("x0", "x1", "x2")
    assert _polys(names, lines) == _polys(
        names, ["x0 + x1 + x2", "x0*x1 + x1*x2 + x0*x2", "x0*x1*x2 - 1"]
    )


def test_katsura_2_matches_its_definition():
    # u0 + 2 u1 + 2 u2 = 1; sum_l u_l u_{m-l} = u_m for m = 0, 1
    names, lines = katsura(2)
    assert names == ("u0", "u1", "u2")
    assert _polys(names, lines) == _polys(
        names,
        ["u0 + 2*u1 + 2*u2 - 1", "u0^2 + 2*u1^2 + 2*u2^2 - u0", "2*u0*u1 + 2*u1*u2 - u1"],
    )


def test_generator_output_counts():
    names, lines = cyclic(5)
    assert (len(names), len(lines)) == (5, 5)
    names, lines = katsura(5)
    assert (len(names), len(lines)) == (6, 6)


def test_zero_dim_family_is_seeded_and_zero_dimensional():
    family = zero_dim_family(7)
    assert family == zero_dim_family(7)
    assert family != zero_dim_family(8)
    assert len(family) == 40
    assert {o for o, _ in family} == {"deglex", "degrevlex"}
    for ordering, lines in family:
        F = _polys(ZERO_DIM_VARIABLES, lines, inv.Ordering.parse(ordering))
        # generator i leads with a pure power of variable i
        for i, p in enumerate(F):
            assert p.lm.variables() == (i,)
