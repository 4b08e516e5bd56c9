#!/usr/bin/env python3
"""Source-mutant gate: every certifying check fails its tests when removed.

Each entry of MUTANTS names a file of the checkout, a text that occurs in it
exactly once, the text that replaces it (the mutant: a check removed or
weakened) and the tests that should fail on the mutant.  The script copies
the checkout to a temporary directory, runs the union of the named tests
there unmutated (they must pass), then applies each mutant in turn and runs
only that mutant's tests (they must fail).  The checkout is never written.

    python3 scripts/check_mutants.py             # every mutant
    python3 scripts/check_mutants.py NAME ...    # the named mutants

Exit status: 0 when every mutant is killed; 1 when a mutant survives, its
tests end in a pytest error, or the unmutated tests fail; 2 when an entry's
old text does not occur exactly once (the entry is stale) or a name is
unknown.  It is kept out of tier-1: each mutant costs one pytest run.  A
change that adds or edits a check adds its mutant here.

One check has no entry because removing it is an equivalent mutant:
`degeneration_report`'s "saturated verdict without degenerate verdict"
raise can never fire, since `saturated_direct` is built as
`degenerate and ...`.  Its "split verdict without saturated verdict" raise
has an entry: the criterion cross-checks before it fire first wherever
rational degeneration holds, so its test breaks the injectivity and
gr_n H reads of a complex where rational degeneration fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = [
    {
        "name": "integer-divisor-rule-without-zero-divisor",
        "file": "src/truncalg/linalg.py",
        "old": "if cj and (not d or cj % d)]",
        "new": "if cj and d and cj % d]",
        "tests": ["tests/test_linalg.py::test_solve_snf_matches_reference_at_every_lead",
                  "tests/test_linalg.py::test_snf_padic_equals_chain_kernel",
                  "tests/test_linalg.py::test_integer_rule_matches_reference_over_localized_integers"],
    },
    {
        "name": "solve-without-tail-check",
        "file": "src/truncalg/linalg.py",
        "old": "    divisors = snf.divisors + [ring.zero] * (snf.cols - ndiv)\n",
        "new": "    divisors = snf.divisors\n",
        "tests": ["tests/test_linalg.py::test_solve_snf_matches_reference_at_every_lead",
                  "tests/test_linalg.py::test_leading_blocks_and_membership_match_full_routes"],
    },
    {
        "name": "localized-rows-without-denominator-scaling",
        "file": "src/truncalg/linalg.py",
        "old": "        yield den, [x.numerator * (den // x.denominator) for x in row]\n",
        "new": "        yield den, [x.numerator for x in row]\n",
        "tests": ["tests/test_linalg.py::test_integer_rule_matches_reference_over_localized_integers",
                  "tests/test_linalg.py::test_snf_localized_matches_fraction_reference"],
    },
    {
        "name": "localized-snf-floor-quotient",
        "file": "src/truncalg/linalg.py",
        "old": "    return (2 * b + piv) // (2 * piv)\n",
        "new": "    return b // piv\n",
        "tests": ["tests/test_linalg.py::test_snf_localized_branches[nearest_row]",
                  "tests/test_linalg.py::test_snf_localized_branches[nearest_col]",
                  "tests/test_linalg.py::test_snf_localized_matches_fraction_reference"],
    },
    {
        "name": "localized-snf-without-fix-up",
        "file": "src/truncalg/linalg.py",
        "old": ("            if bad is None:\n"
                "                break\n"
                "            a[k] = [x + y for x, y in zip(ak, a[bad])]\n"
                "            left[k] = [x + y for x, y in zip(lk, left[bad])]\n"),
        "new": "            break\n",
        "tests": ["tests/test_linalg.py::test_snf_localized_branches[bad_entry]",
                  "tests/test_linalg.py::test_snf_localized_matches_fraction_reference"],
    },
    {
        "name": "localized-snf-keeps-negative-divisors",
        "file": "src/truncalg/linalg.py",
        "old": "        stripped = ring.strip_s(d) if d else d\n",
        "new": "        stripped = ring.strip_s(d) if d > 0 else d\n",
        "tests": ["tests/test_linalg.py::test_snf_localized_branches[sign_flip]",
                  "tests/test_linalg.py::test_snf_localized_matches_fraction_reference"],
    },
    {
        "name": "snf-diagonalizes-always",
        "file": "src/truncalg/linalg.py",
        "old": ("        lhs = self.left.mul(mat, ring).mul(self.right, ring)\n"
                "        return lhs == self.diagonal(mat.rows, mat.cols, ring)\n"),
        "new": "        return True\n",
        "tests": ["tests/test_linalg.py::test_diagonalizes_rejects_a_wrong_identity"],
    },
    {
        "name": "localized-diagonalizes-without-row-scalar",
        "file": "src/truncalg/linalg.py",
        "old": "        for k, (s, acc) in enumerate(zip(self.lscale, _int_products(la, self.rrows))):\n",
        "new": "        for k, (s, acc) in enumerate(zip([self.lden] * self.rows, _int_products(la, self.rrows))):\n",
        "tests": ["tests/test_linalg.py::test_snf_localized_branches[s_strip]",
                  "tests/test_linalg.py::test_diagonalizes_rejects_a_wrong_identity[LocalizedIntegers]"],
    },
    {
        "name": "localized-diagonalizes-without-common-denominator",
        "file": "src/truncalg/linalg.py",
        "old": "        den = self.lden * aden\n",
        "new": "        den = self.lden\n",
        "tests": ["tests/test_linalg.py::test_localized_readers_match_fraction_route",
                  "tests/test_linalg.py::test_diagonalizes_reads_every_entry[LocalizedIntegers]"],
    },
    {
        "name": "localized-diagonalizes-only-the-diagonal",
        "file": "src/truncalg/linalg.py",
        "old": "            if (zero if acc is None else [s * x for x in acc]) != want:\n",
        "new": "            if k < len(divisors) and (0 if acc is None else s * acc[k]) != want[k]:\n",
        "tests": ["tests/test_linalg.py::test_diagonalizes_reads_every_entry[LocalizedIntegers]"],
    },
    {
        "name": "localized-solve-product-without-row-scalar",
        "file": "src/truncalg/linalg.py",
        "old": "ys = ([y * s for y, s in zip(yi, lscale)] for yi in ys)\n",
        "new": "ys = ([y * lden for y, s in zip(yi, lscale)] for yi in ys)\n",
        "tests": ["tests/test_linalg.py::test_localized_readers_match_fraction_route",
                  "tests/test_linalg.py::test_localized_readers_match_fraction_route_on_lambda_expansions",
                  "tests/test_linalg.py::test_integer_rule_matches_reference_over_localized_integers"],
    },
    {
        "name": "localized-kernel-keeps-nonzero-divisor-rows",
        "file": "src/truncalg/linalg.py",
        "old": "                          if j >= ndiv or not divisors[j]], lead)\n",
        "new": "                          if True], lead)\n",
        "tests": ["tests/test_linalg.py::test_localized_readers_match_fraction_route",
                  "tests/test_linalg.py::test_localized_readers_match_fraction_route_on_lambda_expansions",
                  "tests/test_linalg.py::test_solve_and_kernel_random"],
    },
    {
        "name": "localized-solve-without-s-unit-assertion",
        "file": "src/truncalg/linalg.py",
        "old": "        assert all(ring.strip_s(den) == 1 for den in dens), \"a denominator outside S\"\n",
        "new": "",
        "tests": ["tests/test_linalg.py::test_solve_refuses_a_denominator_outside_s"],
    },
    {
        "name": "valuation-rule-without-zero-divisor",
        "file": "src/truncalg/linalg.py",
        "old": "vals = [ring.mlen if v is None else v",
        "new": "vals = [0 if v is None else v",
        "tests": ["tests/test_linalg.py::test_valuation_rule_matches_reference_over_power_series"],
    },
    {
        "name": "membership-verdict-keyed-without-target",
        "file": "src/truncalg/linalg.py",
        "old": "    return _read(base_snf(mat, ring), b, lambda:",
        "new": "    return _read(base_snf(mat, ring), None, lambda:",
        "tests": ["tests/test_linalg.py::test_warm_reads_equal_cold_reads",
                  "tests/test_linalg.py::test_reads_per_entry_are_capped"],
    },
    {
        "name": "kernel-rows-keyed-without-lead",
        "file": "src/truncalg/linalg.py",
        "old": "    return _read(snf, lead, lambda: _kernel_snf(snf, ring, lead))\n",
        "new": "    return _read(snf, None, lambda: _kernel_snf(snf, ring, lead))\n",
        "tests": ["tests/test_linalg.py::test_warm_reads_equal_cold_reads",
                  "tests/test_linalg.py::test_leading_blocks_and_membership_match_full_routes"],
    },
    {
        "name": "membership-zero-shortcut-for-any-target",
        "file": "src/truncalg/linalg.py",
        "old": "    if b.is_zero(ring):\n        return True\n    if not mat.rows:\n",
        "new": "    if True:\n        return True\n    if not mat.rows:\n",
        "tests": ["tests/test_linalg.py::test_membership_fails_on_the_last_row",
                  "tests/test_linalg.py::test_leading_blocks_and_membership_match_full_routes"],
    },
    {
        "name": "reads-without-cap",
        "file": "src/truncalg/linalg.py",
        "old": "        for old in list(reads)[:-_READS]:\n            reads.pop(old, None)\n",
        "new": "",
        "tests": ["tests/test_linalg.py::test_reads_per_entry_are_capped"],
    },
    {
        "name": "invertible-always",
        "file": "src/truncalg/linalg.py",
        "old": "    assert mat.rows == mat.cols\n    base = ring.scalar if ring.expands else ring\n",
        "new": "    return True\n    base = ring.scalar if ring.expands else ring\n",
        "tests": ["tests/test_linalg.py::test_is_invertible_matches_invert",
                  "tests/test_linalg.py::test_verify_checks_witness_invertibility"],
    },
    {
        "name": "invertible-nonzero-determinant-without-s-unit-test",
        "file": "src/truncalg/linalg.py",
        "old": "    return det != 0 and ring.strip_s(det) == 1\n",
        "new": "    return det != 0\n",
        "tests": ["tests/test_linalg.py::test_is_invertible_matches_invert"],
    },
    {
        "name": "residue-rank-without-residue-map",
        "file": "src/truncalg/rings.py",
        "old": "        return [x % p for x in row]\n",
        "new": "        return list(row)\n",
        "tests": ["tests/test_linalg.py::test_is_invertible_matches_invert",
                  "tests/test_modules.py::test_residue_zero_module_matches_membership"],
    },
    {
        "name": "residue-rank-without-constant-term-residue",
        "file": "src/truncalg/rings.py",
        "old": "        return [x[0] % p for x in row]\n",
        "new": "        return [x[0] for x in row]\n",
        "tests": ["tests/test_linalg.py::test_is_invertible_matches_invert",
                  "tests/test_modules.py::test_residue_zero_module_matches_membership"],
    },
    {
        "name": "lambda-residues-read-at-q-equal-2",
        "file": "src/truncalg/rings.py",
        "old": "        return [x[0] for x in row]\n",
        "new": "        return [sum(x) for x in row]\n",
        "tests": ["tests/test_linalg.py::test_is_invertible_matches_invert"],
    },
    {
        "name": "integer-rule-quotient-undivided",
        "file": "src/truncalg/linalg.py",
        "old": "(lambda ci: [cj // d if cj else 0 for cj, d in zip(ci, heads)])",
        "new": "(lambda ci: [cj if cj else 0 for cj, d in zip(ci, heads)])",
        "tests": ["tests/test_linalg.py::test_solve_snf_matches_reference_at_every_lead",
                  "tests/test_linalg.py::test_integer_rule_matches_reference_over_localized_integers"],
    },
    {
        "name": "bk-torsion-exponent-reads-z-valuation",
        "file": "src/truncalg/rings.py",
        "old": "    torsion_exponent = p_valuation\n",
        "new": "    torsion_exponent = z_valuation\n",
        "tests": ["tests/test_modules.py::test_decompose_over_bk_reads_p_exponents",
                  "tests/test_ext.py::test_ext_golden_table"],
    },
    {
        "name": "validate-injectivity-refusal-without-pointer",
        "file": "src/truncalg/spectral.py",
        "old": "                raise refusal(f\"filtration map ({i},{n}) is not injective\", (i, n))\n",
        "new": "                raise SchemaError(f\"filtration map ({i},{n}) is not injective\")\n",
        "tests": ["tests/test_cli.py::test_filtered_complex_refusals_carry_their_pointer"],
    },
    {
        "name": "zero-module-residue-rank-one-short",
        "file": "src/truncalg/modules.py",
        "old": "    return residue_rank(m.relations, m.ring) == m.gens\n",
        "new": "    return residue_rank(m.relations, m.ring) == m.gens - 1\n",
        "tests": ["tests/test_modules.py::test_residue_zero_module_matches_membership"],
    },
    {
        "name": "module-map-without-raise",
        "file": "src/truncalg/modules.py",
        "old": ("        raise NotWellDefinedError(\n"
                "            \"matrix does not send source relations into target relations\")\n"),
        "new": "        pass\n",
        "tests": ["tests/test_modules.py::test_module_map_checks_well_definedness",
                  "tests/test_modules.py::test_module_map_check_is_a_membership_test"],
    },
    {
        "name": "skeleton-memo-keyed-by-degree-alone",
        "file": "src/truncalg/cw.py",
        "old": "        key = (s, j)\n",
        "new": "        key = j\n",
        "tests": ["tests/test_cw.py::test_skeletal_verification_computes_each_skeleton_once"],
    },
    {
        "name": "pair-les-without-top-surjectivity-raise",
        "file": "src/truncalg/cw.py",
        "old": "        raise InternalInconsistencyError(\"six-term sequence fails surjectivity at the top\")\n",
        "new": "        pass\n",
        "tests": ["tests/test_cw.py::test_skeletal_verification_raises_on_each_failed_node[top]"],
    },
    {
        "name": "pair-les-without-connecting-map-raise",
        "file": "src/truncalg/cw.py",
        "old": ("        raise InternalInconsistencyError(\"six-term sequence fails exactness at the "
                "connecting map\")\n"),
        "new": "        pass\n",
        "tests": ["tests/test_cw.py::test_skeletal_verification_raises_on_each_failed_node[connecting]"],
    },
    {
        "name": "pair-les-without-isomorphism-raise",
        "file": "src/truncalg/cw.py",
        "old": ("            raise InternalInconsistencyError(\n"
                "                f\"restriction fails to be an isomorphism in degree {j} below the pair\")\n"),
        "new": "            pass\n",
        "tests": ["tests/test_cw.py::test_skeletal_verification_raises_on_each_failed_node[below]"],
    },
    {
        "name": "make-cw-without-augmentation-check",
        "file": "src/truncalg/cw.py",
        "old": "    for k in range(1, len(cells)):\n",
        "new": "    for k in range(2, len(cells)):\n",
        "tests": ["tests/test_cw.py::test_make_cw_refusals_name_their_pointer",
                  "tests/test_cli.py::test_cw_unaugmented_boundary_refused_at_its_pointer"],
    },
    {
        "name": "cw-augmentation-of-zeros",
        "file": "src/truncalg/cw.py",
        "old": "[[Fraction(1)]] * self.cell_count(0))",
        "new": "[[Fraction(0)]] * self.cell_count(0))",
        "tests": ["tests/test_cw.py::test_augmented_route_matches_the_reduction_reference",
                  "tests/test_cw.py::test_sphere_ktheory"],
    },
    {
        "name": "chain-form-without-exchange",
        "file": "src/truncalg/cw.py",
        "old": "            chain[i], chain[j] = g, chain[i] // g * chain[j]\n",
        "new": "            pass\n",
        "tests": ["tests/test_cw.py::test_chain_form_matches_factoring_reference"],
    },
    {
        "name": "skeletal-verification-without-connectivity-refusal",
        "file": "src/truncalg/cw.py",
        "old": "    if cohomology(min(d, 1), 0)[1].rows != 1:\n",
        "new": "    if False:\n",
        "tests": ["tests/test_cw.py::test_skeletal_verification_needs_a_connected_complex"],
    },
    {
        "name": "mat-without-shape-assertion",
        "file": "src/truncalg/linalg.py",
        "old": "        assert len(data) == rows and set(map(len, data)) <= {cols}\n",
        "new": "",
        "tests": ["tests/test_linalg.py::test_mat_constructor_contract"],
    },
    {
        "name": "decomposition-verify-without-well-definedness",
        "file": "src/truncalg/modules.py",
        "old": "        return (all(f.checked or rows_are_zero_classes(",
        "new": "        return (all(True or rows_are_zero_classes(",
        "tests": ["tests/test_modules.py::test_verify_rejects_a_witness_that_is_not_well_defined"],
    },
    {
        "name": "read-snf-without-identity-check",
        "file": "src/truncalg/modules.py",
        "old": "        raise InternalInconsistencyError(\"Smith normal form fails L . A . R = D\")\n",
        "new": "        pass\n",
        "tests": ["tests/test_modules.py::test_elementary_divisors_check_the_snf"],
    },
    {
        "name": "validate-ses-without-inject-clause",
        "file": "src/truncalg/modules.py",
        "old": "        return \"inject\", \"inject has nonzero kernel\"\n",
        "new": "        pass\n",
        "tests": ["tests/test_cli.py::test_ses_refusal_names_the_failing_map[split_inject]",
                  "tests/test_cli.py::test_ses_refusal_names_the_failing_map[survey_inject]"],
    },
    {
        "name": "verify-exact-at-without-zero-composite",
        "file": "src/truncalg/modules.py",
        "old": "    if not is_zero_map(compose(incl, proj)):\n        return False\n",
        "new": "",
        "tests": ["tests/test_modules.py::test_verify_exact_at_matches_pruned_kernel"],
    },
    {
        "name": "zero-local-global-without-local-claim",
        "file": "src/truncalg/local_global.py",
        "old": ("        raise InternalInconsistencyError(\n"
                "            f\"nonzero map vanished at its certified support prime {witness}\")\n"),
        "new": "        pass\n",
        "tests": ["tests/test_local_global.py::"
                  "test_vanishing_completion_at_first_support_prime_is_inconsistent"],
    },
    {
        "name": "degeneration-report-without-ledger-cross-check",
        "file": "src/truncalg/spectral.py",
        "old": ("            raise InternalInconsistencyError(\n"
                "                \"torsion-length criterion disagrees with direct saturation checks\")\n"),
        "new": "            pass\n",
        "tests": ["tests/test_spectral.py::test_one_wrong_divisor_read_is_an_internal_inconsistency"],
    },
    {
        "name": "degeneration-report-without-multiset-cross-check",
        "file": "src/truncalg/spectral.py",
        "old": ("            raise InternalInconsistencyError(\n"
                "                \"divisor-multiset criterion disagrees with explicit retraction search\")\n"),
        "new": "            pass\n",
        "tests": ["tests/test_spectral.py::test_flipped_retraction_verdict_is_an_internal_inconsistency"],
    },
    {
        "name": "verify-tower-without-exactness-clause",
        "file": "src/truncalg/breuil_kisin.py",
        "old": "    if not verify_exact_at(node.incl, node.proj):\n        return False, \"tower stage not exact\"\n",
        "new": "",
        "tests": ["tests/test_bk.py::test_verify_tower_refuses_a_stage_that_is_not_exact"],
    },
    {
        "name": "check-height-without-upper-certificate-check",
        "file": "src/truncalg/breuil_kisin.py",
        "old": "        raise InternalInconsistencyError(\"height upper certificate fails to verify\")\n",
        "new": "        pass\n",
        "tests": ["tests/test_bk.py::test_check_height_refuses_a_wrong_upper_certificate"],
    },
    {
        "name": "check-height-without-lower-certificate-check",
        "file": "src/truncalg/breuil_kisin.py",
        "old": "        raise InternalInconsistencyError(\"height lower certificate fails to verify\")\n",
        "new": "        pass\n",
        "tests": ["tests/test_bk.py::test_check_height_refuses_a_wrong_lower_certificate"],
    },
    {
        "name": "check-height-phi-as-lower-certificate-at-every-s",
        "file": "src/truncalg/breuil_kisin.py",
        "old": "    lower = b.phi.matrix if s == 0 else",
        "new": "    lower = b.phi.matrix if True else",
        "tests": ["tests/test_bk.py::test_check_height_refuses_a_wrong_lower_certificate"],
    },
    {
        "name": "verify-tower-without-inclusion-clause",
        "file": "src/truncalg/breuil_kisin.py",
        "old": "    if not is_injective(node.incl):\n        return False, \"tower inclusion not injective\"\n",
        "new": "",
        "tests": ["tests/test_bk.py::test_verify_tower_refuses_an_inclusion_that_is_not_injective"],
    },
    {
        "name": "verify-tower-without-projection-clause",
        "file": "src/truncalg/breuil_kisin.py",
        "old": ("    if not is_surjective(node.proj):\n"
                "        return False, \"tower projection not surjective\"\n"),
        "new": "",
        "tests": ["tests/test_bk.py::test_verify_tower_refuses_a_projection_that_is_not_surjective"],
    },
    {
        "name": "verify-tower-without-bar-clause",
        "file": "src/truncalg/breuil_kisin.py",
        "old": ("        if not bar:\n"
                "            return False, \"free layers only allowed in bar-towers\"\n"),
        "new": "",
        "tests": ["tests/test_bk.py::test_verify_tower_free_layer_clauses"],
    },
    {
        "name": "verify-tower-without-free-module-clause",
        "file": "src/truncalg/breuil_kisin.py",
        "old": ("        if not is_free_module(node.bk.module):\n"
                "            return False, \"claimed free layer is not free\"\n"),
        "new": "",
        "tests": ["tests/test_bk.py::test_verify_tower_free_layer_clauses"],
    },
    {
        "name": "verify-tower-without-free-height-clause",
        "file": "src/truncalg/breuil_kisin.py",
        "old": ("        if isinstance(cert, HeightFailure):\n"
                "            return False, \"free layer height fails\"\n"),
        "new": "",
        "tests": ["tests/test_bk.py::test_verify_tower_free_layer_clauses"],
    },
    {
        "name": "structure-check-without-theorem-raise",
        "file": "src/truncalg/breuil_kisin.py",
        "old": ("            raise InternalInconsistencyError(\n"
                "                \"structure theorem predicts an elementary module; decomposition failed\")\n"),
        "new": "            pass\n",
        "tests": ["tests/test_bk.py::test_structure_check_raises_when_the_theorem_is_contradicted"],
    },
    {
        "name": "degeneration-report-without-split-saturated-raise",
        "file": "src/truncalg/spectral.py",
        "old": "        raise InternalInconsistencyError(\"split verdict without saturated verdict\")\n",
        "new": "        pass\n",
        "tests": ["tests/test_spectral.py::"
                  "test_split_verdict_without_saturated_verdict_is_an_internal_inconsistency"],
    },
    {
        "name": "support-primes-unchecked-constant-term-snf",
        "file": "src/truncalg/modules.py",
        "old": "    return elementary_divisors(PresentedModule(ring, m.gens, rel))\n",
        "new": ("    nonzero = [d for d in linalg.smith_normal_form(rel, ring).divisors if d]\n"
                "    return ElementaryDivisors(ring, m.gens - len(nonzero), nonzero)\n"),
        "tests": ["tests/test_modules.py::test_support_primes_read_a_checked_snf"],
    },
    {
        "name": "support-primes-without-rank-deficiency",
        "file": "src/truncalg/modules.py",
        "old": "    if divs.free_rank:\n",
        "new": "    if False:\n",
        "tests": ["tests/test_modules.py::test_support_primes_examples"],
    },
    {
        "name": "failure-primes-factor-the-whole-divisor",
        "file": "src/truncalg/modules.py",
        "old": "factorint(n // gcd(n, c.numerator))",
        "new": "factorint(n)",
        "tests": ["tests/test_modules.py::test_failure_primes_match_the_valuation_route"],
    },
    {
        "name": "completion-precision-without-torsion-depth",
        "file": "src/truncalg/local_global.py",
        "old": "    return max(adaptive_precision(ell, *(m.relations for m in mods), *mats), depth + 2)\n",
        "new": "    return adaptive_precision(ell, *(m.relations for m in mods), *mats)\n",
        "tests": ["tests/test_local_global.py::test_completion_precision_reads_torsion"],
    },
    {
        "name": "completion-descent-without-e1-injectivity",
        "file": "src/truncalg/spectral.py",
        "old": "    \"\"\"M -> M (x) Z_ell is injective iff the torsion is pure ell-power.\"\"\"\n",
        "new": "    return True, None\n",
        "tests": ["tests/test_golden_snapshots.py::"
                  "test_byte_stable_against_snapshot[golden/ss_basechange_localized_ell5.json]"],
    },
    {
        "name": "primes-outside-one-short",
        "file": "src/truncalg/rings.py",
        "old": "count(2) if q not in sset and isprime(q)), k))",
        "new": "count(2) if q not in sset and isprime(q)), k - 1))",
        "tests": ["tests/test_local_global.py::"
                  "test_everywhere_support_is_tested_past_the_inverted_primes",
                  "tests/test_modules.py::test_failure_primes_witness_past_every_inverted_prime"],
    },
    {
        "name": "parse-cw-without-dimension-bound",
        "file": "src/truncalg/schemas.py",
        "old": "    if len(cells) > MAX_DIMENSION + 1:\n",
        "new": "    if False:\n",
        "tests": ["tests/test_cw.py::test_parse_cw_refuses_too_many_dimensions",
                  "tests/test_cli.py::test_cw_verify_sphere_at_the_dimension_bound_finishes"],
    },
    {
        "name": "parse-cw-without-cell-bound",
        "file": "src/truncalg/schemas.py",
        "old": "        if count > MAX_CELLS:\n",
        "new": "        if False:\n",
        "tests": ["tests/test_cw.py::test_parse_cw_refuses_too_many_cells",
                  "tests/test_cli.py::test_cw_oversized_cell_count_refused_at_its_pointer"],
    },
    {
        "name": "localized-element-reads-any-fraction-string",
        "file": "src/truncalg/rings.py",
        "old": "        if isinstance(v, str) and not _FRACTION_STRING.fullmatch(v):\n",
        "new": "        if False:\n",
        "tests": ["tests/test_cli.py::test_noncanonical_fraction_string_rejected"],
    },
    {
        "name": "cli-snf-without-witness-check",
        "file": "src/truncalg/cli.py",
        "old": "    if not res.verify(mat, ring):\n",
        "new": "    if False:\n",
        "tests": ["tests/test_cli.py::"
                  "test_snf_witnesses_that_fail_to_verify_are_an_internal_inconsistency"],
    },
    {
        "name": "cli-ss-report-without-oracle-comparison",
        "file": "src/truncalg/cli.py",
        "old": "            if any(orc[k] != payload[\"verdicts\"][k] for k in orc):\n",
        "new": "            if False:\n",
        "tests": ["tests/test_cli.py::test_oracle_disagreement_is_an_internal_inconsistency"],
    },
    {
        "name": "cli-bk-structure-without-tower-module-check",
        "file": "src/truncalg/cli.py",
        "old": "    if tower is not None and tower.bk.phi != b.phi:  # equal maps have equal targets\n",
        "new": "    if False:\n",
        "tests": ["tests/test_cli.py::test_tower_of_another_module_refused"],
    },
    {
        "name": "parse-tower-without-ring-check",
        "file": "src/truncalg/schemas.py",
        "old": "        if part.bk.ring != bk.ring:\n",
        "new": "        if False:\n",
        "tests": ["tests/test_cli.py::test_tower_part_over_another_ring_refused_at_its_pointer"],
    },
    {
        "name": "parse-tower-without-node-ring-pointer",
        "file": "src/truncalg/schemas.py",
        "old": "    if sub.bk.ring == quot.bk.ring != bk.ring:",
        "new": "    if False:",
        "tests": ["tests/test_cli.py::test_tower_node_over_another_ring_refused_at_its_own_ring"],
    },
    {
        "name": "cli-options-ignore-unknown-keys",
        "file": "src/truncalg/cli.py",
        "old": ("        if key != \"oracle\":\n"
                "            raise SchemaError(f\"unknown option '{key}': the only option is 'oracle'\",\n"
                "                              f\"/options/{key}\")\n"),
        "new": "        if key != \"oracle\":\n            continue\n",
        "tests": ["tests/test_cli.py::test_unknown_option_rejected",
                  "tests/test_cli.py::test_local_precision_option_refused_on_nonsplit_survey"],
    },
    {
        "name": "cli-options-without-oracle-type-check",
        "file": "src/truncalg/cli.py",
        "old": "        if not isinstance(value, bool):\n",
        "new": "        if False:\n",
        "tests": ["tests/test_cli.py::test_malformed_option_rejected"],
    },
    {
        "name": "cli-options-falsy-read-as-none",
        "file": "src/truncalg/cli.py",
        "old": "    options = job.get(\"options\")\n    if options is None:\n        return {}\n",
        "new": "    options = job.get(\"options\") or {}\n",
        "tests": ["tests/test_cli.py::test_falsy_options_refused"],
    },
    {
        "name": "cli-lambda-survey-concludes-only-global-splits",
        "file": "src/truncalg/cli.py",
        "old": "    if survey.covered and all(",
        "new": "    if survey.globally_split and survey.covered and all(",
        "tests": ["tests/test_cli.py::"
                  "test_survey_checks_a_global_non_split_against_its_local_verdicts"],
    },
]


def run_tests(copy, tests):
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv):
    known = {m["name"]: m for m in MUTANTS}
    unknown = [n for n in argv if n not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in argv] if argv else MUTANTS
    sources = {}
    for m in chosen:
        if m["file"] not in sources:
            with open(os.path.join(ROOT, m["file"]), encoding="utf-8") as fh:
                sources[m["file"]] = fh.read()
        if sources[m["file"]].count(m["old"]) != 1:
            print(f"{m['name']}: old text does not occur exactly once in {m['file']}",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="truncalg-mutants-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_out", ".hypothesis"))
        every_test = sorted({t for m in chosen for t in m["tests"]})
        code = run_tests(copy, every_test)
        if code != 0:
            print(f"unmutated: the named tests do not pass (pytest exit {code})")
            return 1
        survivors = 0
        for m in chosen:
            path = os.path.join(copy, m["file"])
            original = sources[m["file"]]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original.replace(m["old"], m["new"]))
            try:
                code = run_tests(copy, m["tests"])
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
            survivors += code != 1
            print(f"{m['name']}: {verdict}")
        print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
