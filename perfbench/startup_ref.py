"""Reference start-up work that measures how fast the machine starts a
Python process right now.

    python3 perfbench/startup_ref.py

Starts the interpreter and imports the modules bftsim depends on, numpy
among them, without importing bftsim itself.  The benchmark times this
child right after every set-up probe to scale set-up times to a fixed
machine speed (see run.py, STARTUP_REF_S).
"""

import argparse  # noqa: F401
import configparser  # noqa: F401
import dataclasses  # noqa: F401
import datetime  # noqa: F401
import hashlib  # noqa: F401
import heapq  # noqa: F401
import json  # noqa: F401
import random  # noqa: F401

import numpy  # noqa: F401
