"""Tests for the matrix-group system and the Dubins family construction."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from singcert.algebra import commutator, jacobi_residual, numerical_rank
from singcert.chart import dubins_adapted_chart
from singcert.extremal import reference_flow, verify_structure_properties
from singcert.systems import ProjectionError, SpaceForm, build_dubins_system

SPACES = [SpaceForm.EUCLIDEAN, SpaceForm.SPHERE, SpaceForm.HYPERBOLIC]


def test_dubins_rejects_small_n():
    with pytest.raises(ValueError):
        build_dubins_system(SpaceForm.EUCLIDEAN, 2)


def test_dubins_euclidean_n3_dimensions():
    sys_ = build_dubins_system(SpaceForm.EUCLIDEAN, 3)
    assert sys_.m == 2
    assert sys_.n == 6
    assert sys_.R == 3
    assert sys_.epsilon == 0


def test_dubins_sphere_drift_entries():
    """Sphere drift has the stated 2x2 rotation block and empty first row/col otherwise."""
    sys_ = build_dubins_system(SpaceForm.SPHERE, 3)
    a0 = sys_.drift
    assert a0[1, 0] == 1.0
    assert a0[0, 1] == -1.0
    mask = np.ones_like(a0, dtype=bool)
    mask[1, 0] = mask[0, 1] = False
    assert np.max(np.abs(a0[mask])) == 0.0


def test_dubins_hyperbolic_n4_derived_dimension():
    sys_ = build_dubins_system(SpaceForm.HYPERBOLIC, 4)
    ai = sys_.controlled
    derived = [
        commutator(ai[i], ai[j])
        for i in range(len(ai))
        for j in range(i + 1, len(ai))
    ]
    assert numerical_rank(np.array([b.ravel() for b in derived])) == 3


def test_dubins_n5_closure_dimension():
    """Brute-force closure of the N = 5 controlled fields has R = 10."""
    sys_ = build_dubins_system(SpaceForm.SPHERE, 5)
    assert sys_.R == 10 == 5 * 4 // 2


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("N", [3, 4, 5])
def test_structure_properties_all_forms(space, N):
    system = build_dubins_system(space, N)
    report = verify_structure_properties(system, dubins_adapted_chart(system))
    assert len(report) == 10
    for check in report:
        assert check.passed, f"{space} N={N}: {check.name} residual {check.residual}"
        assert check.residual <= 1e-12


@pytest.mark.parametrize("space", SPACES)
def test_structure_properties_name_a_broken_construction(space):
    """A repeated controlled field, and a depth-2 table that brackets
    leave, are each named by the hypotheses that cover them: the closure
    table follows dataclasses.replace, so it is never stale."""
    sys_ = build_dubins_system(space, 4)
    a1, a2, a3 = sys_.controlled

    def hypotheses(system):
        return {c.name: c for c in verify_structure_properties(
            system, dubins_adapted_chart(system))}

    repeated = hypotheses(dataclasses.replace(sys_, controlled=(a1, a1, a3)))
    assert not repeated["closure_so_N"].passed
    assert repeated["closure_so_N"].detail == {
        "dimension": 3, "expected_dimension": 6, "bound": 1e-12}
    assert not repeated["frame_basis_rank"].passed
    assert repeated["frame_basis_rank"].detail == {
        "rank": 6, "expected_rank": 10, "bound": 0.0}
    assert not repeated["derived_dimension"].passed
    # [a1, [a1, a2 + [a2, a3]]] is a multiple of a2, outside the table
    open_table = hypotheses(
        dataclasses.replace(sys_, controlled=(a1, a2 + commutator(a2, a3))))
    assert not open_table["closure_so_N"].passed
    assert open_table["closure_so_N"].residual >= 0.1


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("N", [3, 4, 5])
def test_closure_table_is_the_chart_frame_head(space, N):
    """The controlled algebra is one table: the first R axes of the chart."""
    system = build_dubins_system(space, N)
    chart = dubins_adapted_chart(system)
    assert np.array_equal(system.lie_closure_basis,
                          chart.frame_algebra[:chart.R])
    assert len(system.lie_closure_basis) == system.R


def test_double_bracket_identity():
    """[A_i,[A_i,A0]] = -A0 and [A_i,[A_j,A0]] = 0 for i != j."""
    sys_ = build_dubins_system(SpaceForm.EUCLIDEAN, 4)
    a0, ai = sys_.drift, sys_.controlled
    assert np.max(np.abs(commutator(ai[0], commutator(ai[0], a0)) + a0)) == 0.0
    assert np.max(np.abs(commutator(ai[0], commutator(ai[1], a0)))) == 0.0


@pytest.mark.parametrize("space", SPACES)
def test_jacobi_on_bracket_table(space):
    sys_ = build_dubins_system(space, 3)
    gens = [sys_.drift] + list(sys_.controlled)
    for a in gens:
        for b in gens:
            for c in gens:
                assert jacobi_residual(a, b, c) <= 1e-12


@pytest.mark.parametrize("space", SPACES)
def test_group_projection_roundtrip(space):
    """Projection restores a perturbed group element; group residual drops."""
    sys_ = build_dubins_system(space, 3)
    rng = np.random.default_rng(0)
    from scipy.linalg import expm

    g = expm(0.3 * sys_.drift + 0.2 * sys_.controlled[0])
    noisy = g + 1e-8 * rng.standard_normal(g.shape)
    fixed = sys_.project_to_group(noisy)
    assert sys_.group_residual(fixed) <= 1e-12
    assert np.max(np.abs(fixed - g)) <= 1e-6


@pytest.mark.parametrize("space", SPACES)
def test_project_to_group_stack_matches_per_matrix(space):
    """A (S, d, d) stack projects member by member, each member stopping
    on its own."""
    sys_ = build_dubins_system(space, 4)
    rng = np.random.default_rng(1)
    from scipy.linalg import expm

    g = expm(0.3 * sys_.drift + 0.2 * sys_.controlled[0])
    stack = np.array([g + 10.0 ** -k * rng.standard_normal(g.shape)
                      for k in (4, 6, 8, 10, 12)])
    each = np.array([sys_.project_to_group(x) for x in stack])
    assert np.array_equal(sys_.project_to_group(stack), each)
    assert np.array_equal(sys_.project_to_group(stack.reshape(5, 1, 5, 5)),
                          each.reshape(5, 1, 5, 5))


def _rounding_bound(x):
    """(d+1)^2 u max(1, max|x|)^2, the stop bound of project_to_group."""
    u = np.finfo(float).eps / 2
    return (x.shape[-1] + 1) ** 2 * u * max(1.0, np.max(np.abs(x))) ** 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_boost_projection_converges(n):
    """Boosts exp(t A0 + 0.3 A1) up to t = 7.6, max|g| about 1e3, and
    copies of them off the group by 1e-14 and 1e-10 relative, come back
    with both g K g^T - K and g^T K g - K under the rounding bound: a small
    g K g^T - K alone does not make g^T K g - K small."""
    sys_ = build_dubins_system(SpaceForm.HYPERBOLIC, n)
    from scipy.linalg import expm

    k = np.diag([-1.0] + [1.0] * n)
    rng = np.random.default_rng(3)
    boosts = np.array([expm(t * sys_.drift + 0.3 * sys_.controlled[0])
                       for t in np.linspace(0.0, 7.6, 20)])
    assert np.max(np.abs(boosts[-1])) > 900.0
    noisy = [boosts * (1.0 + rel * rng.standard_normal(boosts.shape))
             for rel in (1e-14, 1e-10)]
    for x in sys_.project_to_group(np.concatenate([boosts] + noisy)):
        assert np.max(np.abs(x @ k @ x.T - k)) <= _rounding_bound(x)
        assert np.max(np.abs(x.T @ k @ x - k)) <= _rounding_bound(x)


@pytest.mark.parametrize("space", SPACES)
def test_member_on_group_comes_back_unchanged(space):
    """A member already within rounding of the group is returned bit for
    bit, alone and beside a member the projection moves."""
    sys_ = build_dubins_system(space, 4)
    from scipy.linalg import expm

    g = expm(0.3 * sys_.drift + 0.2 * sys_.controlled[0])
    assert sys_.group_residual(g) <= _rounding_bound(g)
    assert np.array_equal(sys_.project_to_group(g), g)
    noisy = g + 1e-8 * np.random.default_rng(4).standard_normal(g.shape)
    out = sys_.project_to_group(np.array([g, noisy, g]))
    assert np.array_equal(out[0], g) and np.array_equal(out[2], g)
    assert not np.array_equal(out[1], noisy)


@pytest.mark.parametrize("space", SPACES)
def test_projection_raises_when_unsettled(space):
    """diag(1e15, 1, ...), which the step cap cannot bring onto the group,
    raises, alone and as one member of a stack of good matrices. On SE(N)
    the first row is set to e_0, which puts diag(1e15, 1, ...) on the group,
    so there the large entry sits in the rotation block."""
    sys_ = build_dubins_system(space, 4)
    from scipy.linalg import expm

    far = np.diag([1e15, 1.0, 1.0, 1.0, 1.0])
    if space is SpaceForm.EUCLIDEAN:
        assert np.array_equal(sys_.project_to_group(far), np.eye(5))
        far = np.diag([1.0, 1e15, 1.0, 1.0, 1.0])
    with pytest.raises(ProjectionError):
        sys_.project_to_group(far)
    g = expm(0.3 * sys_.drift + 0.2 * sys_.controlled[0])
    with pytest.raises(ProjectionError):
        sys_.project_to_group(np.array([g, far, g]))
    assert sys_.group_residual(sys_.project_to_group(g)) <= 1e-12


def word_tables(sys_):
    """The bracket tables resolved word by word through bracket_matrix."""
    word, ids = sys_.bracket_matrix, range(1, sys_.m + 1)
    derived = np.array([word((i, j)) for i in ids for j in ids if i < j])
    drift = np.array([word((0, i)) for i in ids])
    return {
        "pair_brackets": np.array([[word((i, j)) for j in ids] for i in ids]),
        "derived": derived,
        "drift_brackets": drift,
        "legendre_brackets": np.array([[word((i, (j, 0))) for j in ids]
                                       for i in ids]),
        "algebra_basis": np.concatenate([np.array(sys_.controlled), derived,
                                         drift, sys_.drift[None]]),
    }


def assert_tables_equal_words(sys_):
    for name, expect in word_tables(sys_).items():
        assert np.array_equal(getattr(sys_, name), expect), name


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("N", [3, 4, 5])
def test_bracket_tables_equal_their_words(space, N):
    """Each bracket table equals bracket_matrix of its words, exactly."""
    assert_tables_equal_words(build_dubins_system(space, N))


@pytest.mark.parametrize("space", SPACES)
def test_bracket_tables_follow_a_replaced_drift(space):
    """The tables are formed from the current drift: after
    dataclasses.replace with the flipped drift, or with the drift bent by
    0.1 [A_1, A_2], they are the new drift's brackets."""
    sys_ = build_dubins_system(space, 4)
    a1, a2, _ = sys_.controlled
    flipped = dataclasses.replace(sys_, drift=-sys_.drift)
    assert_tables_equal_words(flipped)
    assert np.array_equal(flipped.drift_brackets, -sys_.drift_brackets)
    assert np.array_equal(flipped.legendre_brackets, -sys_.legendre_brackets)
    assert np.array_equal(flipped.algebra_basis[-1], -sys_.drift)
    bent = dataclasses.replace(sys_, drift=sys_.drift
                               + 0.1 * commutator(a1, a2))
    assert_tables_equal_words(bent)
    assert not np.array_equal(bent.drift_brackets, sys_.drift_brackets)
    assert np.array_equal(bent.pair_brackets, sys_.pair_brackets)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("N", [3, 4, 5])
def test_inverse_is_the_group_inverse(space, N):
    """inverse(q) q = I for q on the reference arc and on the flows of six
    random constant controls, at t = 0, 1, .., 5, once projected onto the
    group: to 2 (d+1)^2 u max(1, max|q|)^2. On the curved forms
    inverse(q) q - I = K (q^T K q - K), the second form of the group
    residual, which project_to_group leaves under half that, and the
    product's rounding takes less than the other half; on SE(N) the
    rotation block is the same and the translation column is rounding."""
    system = build_dubins_system(space, N)
    d = system.d
    rng = np.random.default_rng(N)
    gens = system.drift + np.tensordot(rng.uniform(-1.0, 1.0, (6, system.m)),
                                       np.array(system.controlled), 1)
    ts = np.linspace(0.0, 5.0, 6)
    q = system.project_to_group(np.concatenate([
        reference_flow(system, ts),
        expm(ts[:, None, None, None] * gens).reshape(-1, d, d)]))
    err = np.max(np.abs(system.inverse(q) @ q - np.eye(d)), axis=(1, 2))
    bound = 2 * (d + 1) ** 2 * np.finfo(float).eps / 2 * np.maximum(
        1.0, np.max(np.abs(q), axis=(1, 2))) ** 2
    assert np.all(err <= bound)
