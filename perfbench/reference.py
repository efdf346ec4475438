"""Fixed pure-Python work that does not touch streamscore: the host's speed.

The benchmark starts this like a program child, between operations, and
scales its timings by the median wall time of these runs, because on a
shared host the same interpreter work runs 15-45% slower for minutes at a
time. It mixes what the program's work is made of: interpreter start,
tuple and dict churn, float arithmetic and a sort.
"""


def main() -> float:
    table = {}
    total = 0.0
    for i in range(100_000):
        key = (i % 1009, i)
        table[key] = i * 0.5
        if i % 2:
            total += table.pop(key)
    return total + len(sorted(table.items()))


if __name__ == "__main__":
    main()
