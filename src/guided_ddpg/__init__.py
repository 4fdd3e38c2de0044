"""Trajectory-optimization-guided DDPG for stiff 2D insertion tasks."""
