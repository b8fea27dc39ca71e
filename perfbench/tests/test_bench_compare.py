from compare import judge

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_clear_gain_is_a_win():
    change = [p * 0.8 for p in PARENT]
    j = judge(PARENT, change, "lower", 0.1)
    assert j["verdict"] == "win" and j["wins"] == 10


def test_nine_of_ten_wins_suffice_but_eight_do_not():
    change = [p * 0.8 for p in PARENT]
    change[0] = PARENT[0] + 1
    assert judge(PARENT, change, "lower", 0.1)["verdict"] == "win"
    change[1] = PARENT[1] + 1
    assert judge(PARENT, change, "lower", 0.1)["verdict"] != "win"


def test_gap_within_parent_iqr_is_no_win():
    change = [p - 0.05 for p in PARENT]        # wins every pair, tiny gap
    j = judge(PARENT, change, "lower", 0.1)
    assert j["wins"] == 10 and j["verdict"] == "same"


def test_ties_count_for_neither_side():
    j = judge(PARENT, list(PARENT), "lower", 0.1)
    assert j["wins"] == 0 and j["verdict"] == "same"


def test_higher_is_better_metrics():
    change = [p * 1.3 for p in PARENT]
    assert judge(PARENT, change, "higher", 0.1)["verdict"] == "win"
    assert judge(PARENT, change, "lower", 0.1)["verdict"] == "regression"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert judge(PARENT, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # every run below every parent run, but a median gap within the
    # parent's wide IQR: no win, yet no doubt which side is faster
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 30.0, 31.0, 32.0, 33.0]
    change = [9.0, 9.9, 9.95, 9.8, 9.7, 9.6, 9.5, 9.4, 9.3, 9.2]
    assert judge(parent, change, "lower", 0.1)["verdict"] == "better"
    j = judge(parent, change, "lower", 0.1, extra_failures=True)
    assert j["verdict"] == "unresolved"


def test_more_failures_block_a_win():
    change = [p * 0.8 for p in PARENT]
    assert judge(PARENT, change, "lower", 0.1, extra_failures=True)["verdict"] == "same"
