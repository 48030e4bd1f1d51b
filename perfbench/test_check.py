"""The checker must reject each corrupted output: python3 -m pytest perfbench"""

import check


def test_checker_rejects_each_corruption(tmp_path):
    assert check.self_test(str(tmp_path)) == []
