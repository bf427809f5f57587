"""Slot-synchronous beep-network simulator for distributed majority
voting, with an exact success oracle and analytic lower bounds."""

__version__ = "0.1.0"
