"""Time the set-up of one equidouble CLI invocation in a fresh process.

Usage: python setup_probe.py <equidouble CLI arguments>

Imports the package and builds every structure the invocation would build,
then prints {"setup_s": ...} on stdout. No check runs.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    from equidouble import cli
    from equidouble.catalogue import load_extension, load_group, load_presentation
    from equidouble.doubles import double_algebra, sector_double
    from equidouble.dw import circle_nerve
    from equidouble.groups import extension_to_weak_action
    from equidouble.modular import simples_of_double, trivial_extension
    from equidouble.orbifold import orbifold_algebra, orbifold_ribbon

    config = cli.parse_config(argv)
    command = config.command
    if command == "double":
        double_algebra(load_group(config.group))
    elif command == "jdouble":
        sector_double(load_extension(config.extension))
    elif command == "orbifold":
        sd = sector_double(load_extension(config.extension))
        orbifold_ribbon(sd, orbifold_algebra(sd))
    elif command == "verify-category":
        simples_of_double(load_extension(config.extension))
    elif command == "smatrix":
        simples_of_double(trivial_extension(load_group(config.group)))
    elif command == "cech":
        ext = load_extension(config.extension)
        extension_to_weak_action(ext)
        circle_nerve(ext.J, config.monodromy)
    elif command == "dw":
        load_presentation(config.presentation)
        load_group(config.group)
    elif command == "sectors":
        load_extension(config.extension)
    else:
        print(f"setup_probe: no set-up defined for {command!r}", file=sys.stderr)
        return 2
    json.dump({"setup_s": time.perf_counter() - start}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
