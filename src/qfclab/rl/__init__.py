"""Policy-gradient training (PPO) of feed-forward and recurrent controllers."""
